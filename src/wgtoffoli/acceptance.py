"""End-to-end acceptance checks behind ``wgtoffoli verify all``.

Each check returns a dict with a stable id, a pass flag and a details
payload; ``build_report`` assembles them into a canonical, byte-stable
JSON document. Everything is exhaustive and seeded, so two runs of the
same build produce identical reports.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from . import angles, optics
from .graphstate import WeightedGraph, build_state, build_state_with_input
from .mbqc import (
    MeasurementBasis,
    Pattern,
    PatternStep,
    basis_states,
    enumerate_branches,
    outcome_prefixes,
)
from .qstate import (
    CNOT,
    HADAMARD,
    ID2,
    KET_PLUS,
    PAULI_X,
    PAULI_Z,
    StateVector,
    apply_operator,
    kron_all,
    rz,
)
from .toffoli import (
    NO_LINKING,
    VARIANT_KINDS,
    LinkingByproducts,
    LinkingFrames,
    ResourceVariant,
    branch_outputs,
    build_resource,
    logical_target,
    success_probability,
    toffoli_matrix,
)
from .verify import equal_up_to_phase, is_local, process_fidelity, unit_scale

SEED = 20250810
MAXIMAL = Fraction(1)


def _random_states(rng, count, num_qubits=3):
    out = []
    for _ in range(count):
        amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
        out.append(StateVector(num_qubits, amps / np.linalg.norm(amps)))
    return out


def check_six_success() -> dict:
    none = success_probability(ResourceVariant("six"), "none")
    uniform = success_probability(ResourceVariant("six"), "uniform")
    passed = none.p_success == Fraction(1, 2) and uniform.p_success == Fraction(1, 4)
    return {
        "id": 1,
        "name": "six-qubit success probabilities (none=1/2, uniform=1/4)",
        "passed": passed,
        "details": {
            "none": str(none.p_success),
            "uniform": str(uniform.p_success),
            "max_uniformity_error": max(
                none.max_uniformity_error, uniform.max_uniformity_error
            ),
        },
    }


def check_seven_eight_success() -> dict:
    values = {}
    for kind in ("seven", "eight"):
        for model in ("none", "uniform"):
            report = success_probability(ResourceVariant(kind), model)
            values[f"{kind}/{model}"] = report.p_success
    passed = (
        values["seven/none"] == 1
        and values["seven/uniform"] == Fraction(1, 2)
        and values["eight/none"] == 1
        and values["eight/uniform"] == 1
    )
    return {
        "id": 2,
        "name": "seven-qubit p=1/2 and eight-qubit p=1 under uniform linking",
        "passed": passed,
        "details": {key: str(val) for key, val in sorted(values.items())},
    }


def check_gate_correctness() -> dict:
    """Each local branch, frame removed, is the Toffoli; one walk and comparison per resource."""
    rng = np.random.default_rng(SEED + 3)
    inputs = _random_states(rng, 5)
    psis = np.stack([psi.amplitudes for psi in inputs], axis=1)
    # Basis columns give the branch operator; the random states are
    # embedded directly, so they cross-check it independently.
    columns = np.vstack([np.eye(8), psis.T])
    tof = toffoli_matrix()
    worst_fidelity = 1.0
    checked = 0
    all_match = True
    for kind in VARIANT_KINDS:
        variant = ResourceVariant(kind)
        cases = [LinkingByproducts(sx=sx) for sx in variant.spec.prefactors]
        outs, sigma_ops = [], []
        for linking, outputs in zip(cases, branch_outputs(variant, cases, columns)):
            frames = LinkingFrames(variant, linking)
            local = frames.local_mask()
            outs.append(outputs[local])
            sigma_ops.append(frames.operators()[local])
        outs, sigma_ops = np.concatenate(outs), np.concatenate(sigma_ops)
        corrected = unit_scale(np.linalg.inv(sigma_ops) @ outs[:, :, :8])
        all_match &= bool(equal_up_to_phase(corrected, tof, 1e-10).all())
        worst_fidelity = min(worst_fidelity, float(process_fidelity(corrected, tof).min()))
        # Each random input of each branch is one (8, 1) member.
        got, expected = (
            cols.transpose(0, 2, 1).reshape(-1, 8, 1)
            for cols in (outs[:, :, 8:], sigma_ops @ tof @ psis)
        )
        all_match &= bool(equal_up_to_phase(got, expected, 1e-10).all())
        checked += len(outs)
    passed = all_match and worst_fidelity >= 1 - 1e-10
    return {
        "id": 3,
        "name": "every successful branch equals Toffoli after removing the residual",
        "passed": passed,
        "details": {
            "branches_checked": checked,
            "random_inputs_per_branch": len(inputs),
            "worst_process_fidelity": worst_fidelity,
        },
    }


def check_sigma_formulas() -> dict:
    """Every branch residual equals its predicted frame; one walk and comparison per resource."""
    tof_inv = toffoli_matrix().conj().T
    checked = 0
    all_match = True
    for kind in VARIANT_KINDS:
        variant = ResourceVariant(kind)
        sz_cases = ((0, 0, 0), (1, 1, 0))
        cases = [LinkingByproducts(sx, sz) for sx in variant.spec.prefactors for sz in sz_cases]
        residual = [ops @ tof_inv for ops in branch_outputs(variant, cases, np.eye(8))]
        predicted = [LinkingFrames(variant, linking).operators() for linking in cases]
        residual = unit_scale(np.concatenate(residual))
        predicted = unit_scale(np.concatenate(predicted))
        all_match &= bool(equal_up_to_phase(residual, predicted, 1e-10).all())
        checked += len(residual)
    return {
        "id": 4,
        "name": "predicted residual formulas match every extracted branch residual",
        "passed": all_match,
        "details": {"branches_checked": checked, "sz_cases": 2},
    }


def check_gadget_identity() -> dict:
    rng = np.random.default_rng(SEED + 5)
    chain = WeightedGraph(3, [(0, 1, MAXIMAL), (1, 2, MAXIMAL)])
    all_match = True
    for theta in rng.uniform(0.1, 2 * np.pi - 0.1, size=20):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = StateVector(2, amps / np.linalg.norm(amps))
        state = build_state_with_input(chain, psi, (2, 0))
        gate = kron_all(rz(-theta / 2), rz(-theta / 2)) @ np.diag(
            [1, 1, 1, np.exp(1j * theta)]
        )
        pattern = Pattern([PatternStep(1, MeasurementBasis(theta / 2, hadamard=True))])
        for outcomes, probability, out in enumerate_branches(state, pattern):
            outcome = outcomes[1]
            byproduct = kron_all(PAULI_Z, PAULI_Z) if outcome else np.eye(4)
            expected = byproduct @ gate @ psi.amplitudes / np.sqrt(2)
            all_match &= bool(np.max(np.abs(out.amplitudes - expected)) <= 1e-10)
            all_match &= abs(probability - 0.5) <= 1e-10
    return {
        "id": 5,
        "name": "three-qubit gadget implements the two-wire phase gate",
        "passed": all_match,
        "details": {"angles": 20, "outcomes": 2},
    }


def check_x_propagation() -> dict:
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for theta in rng.uniform(0, 2 * np.pi, size=20):
        cz_pos = np.diag([1, 1, 1, np.exp(1j * theta)])
        cz_neg = np.diag([1, 1, 1, np.exp(-1j * theta)])
        lhs = cz_pos @ kron_all(PAULI_X, ID2)
        rhs = kron_all(PAULI_X, rz(theta)) @ cz_neg
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return {
        "id": 6,
        "name": "X through a controlled phase flips its sign and leaves Rz behind",
        "passed": worst <= 1e-12,
        "details": {"angles": 20, "max_error": worst},
    }


def check_ccz_generalisation() -> dict:
    all_match = True
    locality_ok = True
    tested = []
    for frac in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        variant = ResourceVariant("six", theta=frac)
        target_inv = np.linalg.inv(logical_target(variant))
        operators = branch_outputs(variant, NO_LINKING, np.eye(8))
        frames = LinkingFrames(variant, NO_LINKING)
        branches = outcome_prefixes(variant.measured_vertices)
        residuals = unit_scale(operators @ target_inv)
        local = np.array([outcomes[variant.spec.nonlocal_vertex] == 0 for outcomes in branches])
        all_match &= bool(frames.local_mask(local).all())
        predicted = unit_scale(frames.operators(local))
        all_match &= bool(equal_up_to_phase(residuals[local], predicted, 1e-10).all())
        locality_ok &= not is_local(residuals[~local]).is_local.any()
        tested.append(str(frac))
    return {
        "id": 7,
        "name": "weights theta/2 turn the six-qubit resource into H_t then CCZ(theta)",
        "passed": all_match and locality_ok,
        "details": {"theta_over_pi": tested, "s3_branches_nonlocal": locality_ok},
    }


def _one_shot_probability(steps) -> float:
    """Independent oracle: one global projector on the full photon set.

    Every photon the recipe ever creates gets its own slot; fuses and
    measurements become projectors on the unnormalised joint state, and
    the final squared norm is the coincidence probability.
    """
    slots = []  # initial single-photon kets
    slot_of = {}  # mode label -> active slot
    ops = []  # (kind, payload) replayed on the joint state
    for step in steps:
        if step.op == "source":
            pair = optics.to_weighted_pair(optics.pdc_pair(step.gamma), step.gamma)
            first = len(slots)
            slots.extend([None, None])
            ops.append(("pair", (first, first + 1, pair.amplitudes)))
            slot_of[step.modes[0]] = first
            slot_of[step.modes[1]] = first + 1
        elif step.op == "reset":
            slot = len(slots)
            slots.append(None)
            ops.append(("ket", (slot, KET_PLUS.copy())))
            slot_of[step.modes[0]] = slot
        elif step.op == "fuse":
            a, b = (slot_of[m] for m in step.modes)
            ops.append(("fuse_mask", (a, b)))
            ops.append(("gate", (slot_of[step.h_on], HADAMARD)))
        elif step.op == "rotate":
            ops.append(("gate", (slot_of[step.modes[0]], rz(angles.radians(step.angle)))))
        elif step.op == "measure":
            ket = basis_states(step.basis or optics.COMPUTATIONAL)[step.outcome]
            projector = np.outer(ket, ket.conj())
            ops.append(("gate", (slot_of[step.modes[0]], projector)))
            del slot_of[step.modes[0]]
        else:
            raise ValueError(step.op)

    n = len(slots)
    state = StateVector(n, np.zeros(1 << n, dtype=complex))
    state.amplitudes[0] = 1.0
    # Initialise slots (they are independent photons, so order is free).
    for kind, payload in ops:
        if kind == "ket":
            slot, ket = payload
            state = apply_operator(state, (slot,), np.outer(ket, [1, 0]).astype(complex))
    for kind, payload in ops:
        if kind == "pair":
            a, b, amps = payload
            # pair qubit 0 -> first mode -> slot a; qubit 1 -> slot b.
            mat = np.zeros((4, 4), dtype=complex)
            mat[:, 0] = amps  # maps |00> of (b,a) to the pair state
            state = apply_operator(state, (b, a), mat)
    for kind, payload in ops:
        if kind == "fuse_mask":
            a, b = payload
            idx = np.arange(state.amplitudes.size)
            keep = (((idx >> a) ^ (idx >> b)) & 1) == 0
            state = StateVector(n, np.where(keep, state.amplitudes, 0))
        elif kind == "gate":
            slot, mat = payload
            state = apply_operator(state, (slot,), mat)
    return state.norm_sq


def _quoted_fixture(labels, terms):
    total = None
    for kets in terms:
        vec = None
        for q in range(len(labels) - 1, -1, -1):
            ket = kets[labels[q]]
            vec = ket if vec is None else np.kron(vec, ket)
        total = vec if total is None else total + vec
    return total / np.linalg.norm(total)


def recipe_fidelity(register: optics.PhotonRegister) -> float:
    """Fidelity of a finished recipe's register with the six-qubit resource graph."""
    target = build_state(build_resource(ResourceVariant("six")))
    final = optics.sorted_state(register)
    return float(abs(np.vdot(target.amplitudes, final.amplitudes)) ** 2)


def check_optics_recipe() -> dict:
    """Check 8: the built-in recipe's intermediate and final states, one run.

    The registers after steps 3, 5 and 8 and the final one all come from
    a single pass of ``optics.apply_step`` over the recipe, so each step
    runs once; they are the registers ``run_recipe`` gives on those
    prefixes, bit for bit.
    """
    steps = optics.six_qubit_recipe()
    ket_h = np.array([1, 0], dtype=complex)
    ket_v = np.array([0, 1], dtype=complex)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)

    def tilted(theta):
        return np.array([1, np.exp(1j * theta)], dtype=complex) / np.sqrt(2)

    quarter_plus = tilted(np.pi / 2)

    fixtures = {
        3: [  # after the first fusion
            {2: KET_PLUS, 1: ket_h, 6: KET_PLUS, 7: KET_PLUS},
            {2: quarter_plus, 1: ket_v, 6: minus, 7: quarter_plus},
        ],
        5: [  # after fusing in the fresh photon on mode 4
            {2: KET_PLUS, 1: ket_h, 6: ket_h, 4: KET_PLUS, 7: KET_PLUS},
            {2: KET_PLUS, 1: ket_h, 6: ket_v, 4: minus, 7: KET_PLUS},
            {2: quarter_plus, 1: ket_v, 6: ket_h, 4: KET_PLUS, 7: quarter_plus},
            {2: quarter_plus, 1: ket_v, 6: ket_v, 4: -minus, 7: quarter_plus},
        ],
        8: [  # after the tilted measurement and the two waveplates
            {2: KET_PLUS, 1: ket_h, 4: KET_PLUS, 7: KET_PLUS},
            {2: quarter_plus, 1: ket_v, 4: tilted(-np.pi / 2), 7: quarter_plus},
        ],
    }
    fixture_err = 0.0
    register = optics.PhotonRegister()
    for index, step in enumerate(steps):
        register = optics.apply_step(register, step)
        terms = fixtures.get(index + 1)
        if terms is not None:
            expected = _quoted_fixture(register.labels, terms)
            got = register.state.amplitudes / np.linalg.norm(register.state.amplitudes)
            fixture_err = max(fixture_err, abs(1.0 - abs(np.vdot(expected, got))))

    fidelity = recipe_fidelity(register)

    stepwise = register.cumulative_prob
    one_shot = _one_shot_probability(steps)
    prob_gap = abs(stepwise - one_shot)

    passed = (
        fixture_err <= 1e-10 and fidelity >= 1 - 1e-10 and prob_gap <= 1e-12
    )
    return {
        "id": 8,
        "name": "optics recipe builds the six-qubit graph; probabilities cross-check",
        "passed": passed,
        "details": {
            "fixture_error": fixture_err,
            "final_fidelity": fidelity,
            "coincidence_probability": stepwise,
            "one_shot_probability": one_shot,
        },
    }


def _factorisation_local(ops: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Brute-force locality oracle: peel single-wire factors off by SVD.

    ``ops`` is a ``(B, 8, 8)`` stack; each peeling step is one stacked
    SVD, and the result holds one verdict per member. The method shares
    nothing with ``verify.is_local``, so check 9 can hold one against the
    other.
    """
    ops = np.asarray(ops, dtype=complex)
    count = len(ops)
    rest = ops.reshape(count, 2, 2, 2, 2, 2, 2).transpose(0, 1, 4, 2, 5, 3, 6)
    rest = rest.reshape(count, 4, 16)
    factors = []
    for _ in range(2):
        u, s, vh = np.linalg.svd(rest)
        root = np.sqrt(s[:, :1])
        factors.append((u[:, :, 0] * root).reshape(count, 2, 2))
        rest = (vh[:, 0] * root).reshape(count, 4, -1)
    factors.append(rest.reshape(count, 2, 2))
    product = _kron_stack(*factors)
    scale = np.einsum("bij,bij->b", product.conj(), ops) / np.einsum(
        "bij,bij->b", product.conj(), product
    )
    residual = np.abs(ops - scale[:, None, None] * product).max(axis=(1, 2))
    return residual <= tol * np.abs(ops).max(axis=(1, 2))


def _kron_stack(*factors: np.ndarray) -> np.ndarray:
    """``kron_all`` of each stack member's factors, multiplied in the same order."""
    out = factors[0]
    for factor in factors[1:]:
        count, rows, cols = out.shape
        _, f_rows, f_cols = factor.shape
        out = out[:, :, None, :, None] * factor[:, None, :, None, :]
        out = out.reshape(count, rows * f_rows, cols * f_cols)
    return out


def _random_factors(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``(count, 3, 2, 2)`` random 2x2 matrices and ``(count, 6, 2, 2)`` random unitaries.

    Row ``i`` holds the factors of the ``i``-th local operator and of the
    six unitaries around the ``i``-th entangler. Each matrix is drawn as a
    real and then an imaginary 2x2 part, in that order, so one draw gives
    the stream of one draw per matrix; one stacked ``qr`` makes the last
    six of each row unitary.
    """
    parts = rng.normal(size=(count, 9, 2, 2, 2))
    singles = parts[:, :, 0] + 1j * parts[:, :, 1]
    unitaries, _ = np.linalg.qr(singles[:, 3:])
    return singles[:, :3], unitaries


def _random_operators(rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` random local 8x8 operators and ``count`` non-local ones.

    A local operator is the Kronecker product of three random 2x2
    matrices; a non-local one puts CNOT(c2, t) between two layers of
    random single-wire unitaries.
    """
    singles, unitaries = _random_factors(rng, count)
    factors = np.concatenate([singles, unitaries[:, :3], unitaries[:, 3:]])
    local_ops, left, right = np.split(_kron_stack(*factors.transpose(1, 0, 2, 3)), 3)
    return local_ops, left @ kron_all(ID2, CNOT) @ right


def check_locality_classifier() -> dict:
    rng = np.random.default_rng(SEED + 9)
    ground_truth_ok = True
    for kind in VARIANT_KINDS:
        variant = ResourceVariant(kind)
        frames = LinkingFrames(variant, NO_LINKING)
        vertex = variant.spec.nonlocal_vertex
        outcomes = outcome_prefixes(variant.measured_vertices)
        sigmas = frames.operators()
        expected = [vertex is None or branch[vertex] == 0 for branch in outcomes]
        ground_truth_ok &= bool(np.array_equal(is_local(sigmas).is_local, expected))

    local_ops, nonlocal_ops = _random_operators(rng, 100)
    random_ok = bool(is_local(local_ops).is_local.all())
    random_ok &= not is_local(nonlocal_ops).is_local.any()
    random_ok &= bool(_factorisation_local(local_ops).all())
    random_ok &= not _factorisation_local(nonlocal_ops).any()
    return {
        "id": 9,
        "name": "locality classifier matches the known partition and a second method",
        "passed": ground_truth_ok and random_ok,
        "details": {"randomised_operators": 200, "ground_truth": ground_truth_ok},
    }


CHECKS = [
    check_six_success,
    check_seven_eight_success,
    check_gate_correctness,
    check_sigma_formulas,
    check_gadget_identity,
    check_x_propagation,
    check_ccz_generalisation,
    check_optics_recipe,
    check_locality_classifier,
]


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    return value


def run_checks() -> list[dict]:
    return [_json_safe(check()) for check in CHECKS]


def canonical_json(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def build_report() -> dict:
    """Full acceptance report, including the determinism self-check."""
    first = run_checks()
    second = run_checks()
    deterministic = canonical_json(first) == canonical_json(second)
    criteria = first + [
        {
            "id": 10,
            "name": "repeated runs produce byte-identical reports",
            "passed": deterministic,
            "details": {"recomputed": True},
        }
    ]
    return {
        "format_version": 1,
        "criteria": criteria,
        "all_passed": all(c["passed"] for c in criteria),
    }
