"""Per-column reference path, the oracle of the bitwise engine tests.

``branch_map`` runs one logical input through ``toffoli.encoded_state``
and ``mbqc.run_branch`` on its own, one projection at a time, and
``reconstruct_operator`` stacks its outputs on the basis inputs into a
branch operator. ``toffoli.branch_outputs`` must equal both bit for bit.
"""

from wgtoffoli.mbqc import run_branch
from wgtoffoli.qstate import StateVector, reconstruct_operator, reorder_qubits
from wgtoffoli.toffoli import encoded_state, measurement_program

__all__ = ["branch_map", "reconstruct_operator"]


def branch_map(variant, linking, outcomes):
    """Linear map from the logical input to the unnormalised branch output.

    The output is reported in wire order (c1, c2, t) with c1 on the most
    significant qubit; its squared norm is the branch probability.
    """
    pattern = measurement_program(variant, linking)
    outcomes = dict(outcomes)

    def run(psi: StateVector) -> StateVector:
        state = encoded_state(variant, psi, linking)
        _, out = run_branch(state, pattern, outcomes)
        # Surviving vertices (c2, t-out, c1) sit on qubits (0, 1, 2).
        return reorder_qubits(out, (1, 0, 2))

    return run
