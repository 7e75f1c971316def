"""Reference paths, the oracles of the bitwise engine and kernel tests.

``branch_map`` runs one logical input through ``toffoli.encoded_state``
and ``mbqc.run_branch`` on its own, one projection at a time, and
``reconstruct_operator`` stacks its outputs on the basis inputs into a
branch operator. ``toffoli.branch_outputs`` must equal both as values.
``apply_cz_theta_mask`` is the controlled phase in its index-mask form,
which ``qstate.apply_cz_theta`` must match byte for byte.
"""

import numpy as np

from wgtoffoli.mbqc import run_branch
from wgtoffoli.qstate import StateVector, reconstruct_operator, reorder_qubits
from wgtoffoli.toffoli import encoded_state, measurement_program

__all__ = ["apply_cz_theta_mask", "branch_map", "reconstruct_operator"]


def apply_cz_theta_mask(state: StateVector, qubit_a: int, qubit_b: int, theta: float):
    """Multiply every amplitude whose index has both bits set by e^{i*theta}."""
    idx = np.arange(1 << state.num_qubits)
    mask = ((idx >> qubit_a) & (idx >> qubit_b) & 1).astype(bool)
    amps = state.amplitudes.copy()
    amps[mask] *= np.exp(1j * theta)
    return StateVector(state.num_qubits, amps)


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
