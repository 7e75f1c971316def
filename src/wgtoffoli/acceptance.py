"""End-to-end acceptance checks behind ``wgtoffoli verify all``.

Each check returns a dict with a stable id, a pass flag and a details
payload; ``build_report`` assembles them into a canonical, byte-stable
JSON document. Everything is exhaustive and seeded, so two runs of the
same build produce identical reports.
"""

from __future__ import annotations

import itertools
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
    frame_to_operator,
    run_branch,
)
from .qstate import (
    CNOT,
    HADAMARD,
    ID2,
    KET_PLUS,
    PAULI_X,
    PAULI_Z,
    StateVector,
    apply_single,
    kron_all,
    rz,
)
from .toffoli import (
    NO_LINKING,
    RECOVERABLE_LINKING,
    LinkingByproducts,
    ResourceVariant,
    branch_outputs,
    ccz_theta_matrix,
    hadamard_on_target,
    predicted_sigma,
    success_probability,
    toffoli_matrix,
)
from .verify import equal_up_to_phase, is_local, process_fidelity, unit_scale

SEED = 20250810
MAXIMAL = Fraction(1)

ALL_BITS = list(itertools.product((0, 1), repeat=3))


def _random_states(rng, count, num_qubits=3):
    out = []
    for _ in range(count):
        amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
        out.append(StateVector(num_qubits, amps / np.linalg.norm(amps)))
    return out


def _states_match(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Phase-free comparison of an unnormalised state with a reference vector."""
    va, vb = np.asarray(a), np.asarray(b)
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0 or nb == 0:
        return na == nb
    return abs(abs(np.vdot(va, vb)) / (na * nb) - 1.0) <= tol


def _all_outcomes(variant: ResourceVariant):
    """Every outcome assignment, as (bits, {vertex: bit}) pairs."""
    vertices = variant.measured_vertices
    for bits in itertools.product((0, 1), repeat=len(vertices)):
        yield bits, dict(zip(vertices, bits))


def _successful_outcomes(variant: ResourceVariant):
    """Outcome assignments whose predicted residual is a tensor product."""
    for bits, outcomes in _all_outcomes(variant):
        if variant.kind == "six" and outcomes[2] == 1:
            continue
        yield bits, outcomes


def _sx_cases(variant: ResourceVariant):
    return ALL_BITS if variant.kind == "eight" else sorted(RECOVERABLE_LINKING)


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
    rng = np.random.default_rng(SEED + 3)
    inputs = _random_states(rng, 5)
    # Basis columns give the branch operator; the random states are
    # embedded directly, so they cross-check it independently.
    columns = np.vstack([np.eye(8)] + [psi.amplitudes for psi in inputs])
    tof = toffoli_matrix()
    worst_fidelity = 1.0
    checked = 0
    all_match = True
    for kind in ("six", "seven", "eight"):
        variant = ResourceVariant(kind)
        for sx in _sx_cases(variant):
            linking = LinkingByproducts(sx=sx)
            outputs = branch_outputs(variant, linking, columns)
            for bits, outcomes in _successful_outcomes(variant):
                out = outputs[bits]
                sigma_op = frame_to_operator(predicted_sigma(variant, outcomes, linking))
                corrected = unit_scale(np.linalg.inv(sigma_op) @ out[:, :8])
                all_match &= equal_up_to_phase(corrected, tof, 1e-10)
                worst_fidelity = min(worst_fidelity, process_fidelity(corrected, tof))
                expected = sigma_op @ tof
                for k, psi in enumerate(inputs, start=8):
                    all_match &= _states_match(out[:, k], expected @ psi.amplitudes, 1e-10)
                checked += 1
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
    tof_inv = toffoli_matrix().conj().T
    checked = 0
    all_match = True
    for kind in ("six", "seven", "eight"):
        variant = ResourceVariant(kind)
        for sx in _sx_cases(variant):
            for sz in ((0, 0, 0), (1, 1, 0)):
                linking = LinkingByproducts(sx=sx, sz=sz)
                operators = branch_outputs(variant, linking, np.eye(8))
                for bits, outcomes in _all_outcomes(variant):
                    residual = unit_scale(operators[bits] @ tof_inv)
                    predicted = unit_scale(
                        frame_to_operator(predicted_sigma(variant, outcomes, linking))
                    )
                    all_match &= equal_up_to_phase(residual, predicted, 1e-10)
                    checked += 1
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
        for outcome in (0, 1):
            pattern = Pattern([PatternStep(1, MeasurementBasis(theta / 2, hadamard=True))])
            probability, out = run_branch(state, pattern, {1: outcome})
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
        raw_target = hadamard_on_target() @ ccz_theta_matrix(float(frac) * np.pi)
        raw_inv = np.linalg.inv(raw_target)
        operators = branch_outputs(variant, NO_LINKING, np.eye(8), hadamard_encode=False)
        for bits, outcomes in _all_outcomes(variant):
            residual = unit_scale(operators[bits] @ raw_inv)
            if outcomes[2] == 0:
                sigma = predicted_sigma(variant, outcomes, NO_LINKING)
                all_match &= sigma.is_local
                all_match &= equal_up_to_phase(
                    residual, unit_scale(frame_to_operator(sigma)), 1e-10
                )
            else:
                locality_ok &= not is_local(residual).is_local
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
            state = apply_single(state, slot, np.outer(ket, [1, 0]).astype(complex))
    for kind, payload in ops:
        if kind == "pair":
            a, b, amps = payload
            tensor = amps.reshape(2, 2)  # (qubit a msb? a is modes[0] -> slot a)
            # amps indexes (slot b, slot a) with slot a least significant?
            # pair qubit 0 -> first mode -> slot a; qubit 1 -> slot b.
            mat = np.zeros((4, 4), dtype=complex)
            mat[:, 0] = amps  # maps |00> of (b,a) to the pair state
            state = apply_operator_pair(state, b, a, mat)
    for kind, payload in ops:
        if kind == "fuse_mask":
            a, b = payload
            idx = np.arange(state.amplitudes.size)
            keep = (((idx >> a) ^ (idx >> b)) & 1) == 0
            state = StateVector(n, np.where(keep, state.amplitudes, 0))
        elif kind == "gate":
            slot, mat = payload
            state = apply_single(state, slot, mat)
    return state.norm_sq


def apply_operator_pair(state, q_msb, q_lsb, mat):
    from .qstate import apply_operator

    return apply_operator(state, (q_msb, q_lsb), mat)


def _quoted_fixture(labels, terms):
    total = None
    for kets in terms:
        vec = None
        for q in range(len(labels) - 1, -1, -1):
            ket = kets[labels[q]]
            vec = ket if vec is None else np.kron(vec, ket)
        total = vec if total is None else total + vec
    return total / np.linalg.norm(total)


def check_optics_recipe() -> dict:
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
    for prefix, terms in fixtures.items():
        register = optics.run_recipe(steps[:prefix])
        expected = _quoted_fixture(register.labels, terms)
        got = register.state.amplitudes / np.linalg.norm(register.state.amplitudes)
        fixture_err = max(fixture_err, abs(1.0 - abs(np.vdot(expected, got))))

    register = optics.run_recipe(steps)
    target = build_state(
        WeightedGraph(
            6,
            [
                (0, 1, Fraction(1, 2)),
                (0, 3, Fraction(-1, 2)),
                (0, 5, Fraction(1, 2)),
                (1, 2, MAXIMAL),
                (2, 3, MAXIMAL),
                (3, 4, MAXIMAL),
                (2, 5, MAXIMAL),
                (4, 5, MAXIMAL),
            ],
        )
    )
    final = optics.sorted_state(register)
    fidelity = float(abs(np.vdot(target.amplitudes, final.amplitudes)) ** 2)

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


def _factorisation_local(op: np.ndarray, tol: float = 1e-8) -> bool:
    """Brute-force locality oracle: peel single-wire factors off by SVD."""
    op = np.asarray(op, dtype=complex)
    factors = []
    rest = op.reshape(2, 2, 2, 2, 2, 2)
    rest = np.transpose(rest, (0, 3, 1, 4, 2, 5)).reshape(4, 16)
    for _ in range(2):
        u, s, vh = np.linalg.svd(rest)
        factors.append((u[:, 0] * np.sqrt(s[0])).reshape(2, 2))
        tail_dim = vh.shape[1]
        rest = (vh[0] * np.sqrt(s[0])).reshape(4, tail_dim // 4)
    factors.append(rest.reshape(2, 2))
    product = kron_all(*factors)
    scale = np.vdot(product, op) / np.vdot(product, product)
    return bool(np.max(np.abs(op - scale * product)) <= tol * np.max(np.abs(op)))


def check_locality_classifier() -> dict:
    rng = np.random.default_rng(SEED + 9)
    six = ResourceVariant("six")
    ground_truth_ok = True
    for bits in itertools.product((0, 1), repeat=3):
        outcomes = dict(zip((1, 2, 3), bits))
        sigma = frame_to_operator(predicted_sigma(six, outcomes, NO_LINKING))
        ground_truth_ok &= is_local(sigma).is_local == (outcomes[2] == 0)
    for kind in ("seven", "eight"):
        variant = ResourceVariant(kind)
        for bits in itertools.product((0, 1), repeat=len(variant.measured_vertices)):
            outcomes = dict(zip(variant.measured_vertices, bits))
            sigma = frame_to_operator(predicted_sigma(variant, outcomes, NO_LINKING))
            ground_truth_ok &= is_local(sigma).is_local

    def random_single(unitary=False):
        mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if unitary:
            mat, _ = np.linalg.qr(mat)
        return mat

    entangler = kron_all(ID2, CNOT)
    random_ok = True
    for _ in range(100):
        local_op = kron_all(*(random_single() for _ in range(3)))
        random_ok &= is_local(local_op).is_local
        random_ok &= _factorisation_local(local_op)
        nonlocal_op = (
            kron_all(*(random_single(True) for _ in range(3)))
            @ entangler
            @ kron_all(*(random_single(True) for _ in range(3)))
        )
        random_ok &= not is_local(nonlocal_op).is_local
        random_ok &= not _factorisation_local(nonlocal_op)
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
