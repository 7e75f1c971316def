"""Reference paths, the oracles of the bitwise engine and kernel tests.

``branch_map`` runs one logical input through ``toffoli.encoded_state``
and ``mbqc.run_branch`` on its own, one projection at a time, and
``reconstruct_operator`` stacks its outputs on the basis inputs into a
branch operator. ``toffoli.branch_outputs`` must equal both as values.
``apply_cz_theta_mask`` is the controlled phase in its index-mask form,
which ``qstate.apply_cz_theta`` must match byte for byte, and
``apply_operator_moveaxis`` is ``qstate.apply_operator`` as two
``np.moveaxis`` calls around the matmul, which it, and
``qstate.apply_matrix`` on each register of a batch, must match byte
for byte. ``make_word``, ``word_mul`` and ``word_matrix`` are the
byproduct-word formulas computed afresh on every call, which the ``mbqc``
word algebra must match in the word, in every bit of the phase and in
the matrix bytes.
``composed_frame`` is one branch's frame as ``toffoli.LinkingFrames``
composed it before it built every branch at once: the branch's words from
its outcome bits, then ``(prefactor @ words) @ sz_frame`` by two
``mbqc.frame_compose`` calls, with the same checks in the same order.
The table's stack and rows must equal it byte for byte.
``local_branch_counts`` counts the local branches of each sx case one
``composed_frame`` at a time, the way ``success_probability``
counted before it classified branches without frames, and
``uniformity_by_enumeration`` is the branch-uniformity check as one
``enumerate_branches`` call per input and linking case, on the inputs
``uniformity_draws`` draws from the seeded generator.
``encoded_state_per_row`` embeds one logical input the way
``toffoli.encoded_state`` did before rows were built in batches: kernel
calls on one state and the index-mask controlled phase per edge. The
per-matrix ``unit_scale``, ``process_fidelity`` and ``schmidt_values``
are the ``verify`` formulas before they took stacks, and
``factorisation_local`` is check 9's second locality method before it
took stacks.
"""

import itertools

import numpy as np

from wgtoffoli import angles
from wgtoffoli.mbqc import (
    ByproductOperator,
    WireWord,
    enumerate_branches,
    frame_compose,
    run_branch,
)
from wgtoffoli.qstate import (
    HADAMARD,
    KET_PLUS,
    PAULI_X,
    PAULI_Z,
    StateVector,
    apply_operator,
    basis_state,
    kron_all,
    reconstruct_operator,
    reorder_qubits,
    rz,
)
from wgtoffoli.toffoli import (
    C1_VERTEX,
    C2_VERTEX,
    NO_LINKING,
    T_IN_VERTEX,
    UNIFORMITY_RANDOM_INPUTS,
    WIRES,
    FrameUnavailable,
    LinkingByproducts,
    _check_recoverable,
    _nonlocal_factor,
    build_resource,
    encoded_state,
    measurement_program,
)

__all__ = [
    "apply_cz_theta_mask",
    "apply_operator_moveaxis",
    "branch_map",
    "composed_frame",
    "encoded_state_per_row",
    "factorisation_local",
    "local_branch_counts",
    "make_word",
    "process_fidelity",
    "reconstruct_operator",
    "schmidt_values",
    "uniformity_by_enumeration",
    "uniformity_draws",
    "unit_scale",
    "word_matrix",
    "word_mul",
]


def apply_cz_theta_mask(state: StateVector, qubit_a: int, qubit_b: int, theta: float):
    """Multiply every amplitude whose index has both bits set by e^{i*theta}."""
    idx = np.arange(1 << state.num_qubits)
    mask = ((idx >> qubit_a) & (idx >> qubit_b) & 1).astype(bool)
    amps = state.amplitudes.copy()
    amps[mask] *= np.exp(1j * theta)
    return StateVector(state.num_qubits, amps)


def apply_operator_moveaxis(state: StateVector, targets, matrix) -> StateVector:
    """Move the target axes to the front, apply the matrix, move them back."""
    n, k = state.num_qubits, len(targets)
    axes = [n - 1 - q for q in targets]
    tensor = np.moveaxis(state.amplitudes.reshape((2,) * n), axes, range(k))
    tensor = (np.asarray(matrix, dtype=complex) @ tensor.reshape(1 << k, -1)).reshape((2,) * n)
    return StateVector(n, np.moveaxis(tensor, range(k), axes).reshape(-1))


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


def make_word(x: int = 0, z: int = 0, k: int = 0) -> WireWord:
    """X^x Z^z Rz(k*pi/4) with Rz(pi) folded into Z, so that k lands in 0..3."""
    k %= 8
    if k >= 4:
        k -= 4
        z ^= 1
    return WireWord(x & 1, z & 1, k)


def word_mul(a: WireWord, b: WireWord) -> tuple[WireWord, complex]:
    """Canonical product a*b and the scalar it picks up, by the direct formula."""
    phase = 1.0 + 0.0j
    k_left = a.k
    if b.x:
        if a.z:
            phase = -phase
        if a.k:
            phase *= np.exp(1j * np.pi / 4 * a.k)
            k_left = -a.k
    return make_word(a.x ^ b.x, a.z ^ b.z, k_left + b.k), phase


def word_matrix(word: WireWord) -> np.ndarray:
    """A fresh, writable 2x2 matrix of the word."""
    out = rz(word.k * np.pi / 4)
    if word.z:
        out = PAULI_Z @ out
    if word.x:
        out = PAULI_X @ out
    return out


def _frame(c1=WireWord(), c2=WireWord(), t=WireWord(), **kwargs) -> ByproductOperator:
    return ByproductOperator(WIRES, {"c1": c1, "c2": c2, "t": t}, **kwargs)


def composed_frame(variant, outcomes, linking=NO_LINKING) -> ByproductOperator:
    """One branch's frame, composed on its own by ``mbqc.frame_compose``."""
    _check_recoverable(variant, linking)
    spec, theta = variant.spec, variant.theta
    h8 = angles.eighths(theta / 2)
    flip = -1 if (linking.sx[1] ^ linking.sx[2]) else 1
    entries = spec.prefactors[linking.sx]
    needed = set(spec.measured_vertices)
    if outcomes.keys() != needed:
        raise ValueError(f"outcomes must cover exactly vertices {sorted(needed)}")
    for vertex in sorted(needed):
        if outcomes[vertex] not in (0, 1):
            raise ValueError(f"outcome for vertex {vertex} must be 0 or 1")
    vertex = spec.nonlocal_vertex
    nonlocal_branch = vertex is not None and bool(outcomes[vertex])
    if nonlocal_branch and h8 is None:
        raise FrameUnavailable(
            f"{variant.kind}-qubit frames with s{vertex + 1} = 1 are "
            "tabulated for theta a multiple of pi/2 only, not theta = "
            f"{angles.describe(theta)}"
        )
    if spec.pi_only and theta != 1:
        raise FrameUnavailable(
            f"{variant.kind}-qubit frames are tabulated for theta = pi only, "
            f"not theta = {angles.describe(theta)}"
        )
    if h8 is None and any(k for _, _, k in entries.values()):
        raise FrameUnavailable(
            f"{variant.kind}-qubit linking corrections are tabulated for theta a "
            "multiple of pi/2 only"
        )
    prefactor = _frame(
        **{wire: make_word(x, z, k * h8 if k else 0) for wire, (x, z, k) in entries.items()}
    )
    sz_frame = _frame(
        c1=make_word(z=linking.sz[0]),
        c2=make_word(z=linking.sz[1]),
        t=make_word(x=linking.sz[2]),
    )
    branch_words = {}
    for wire, word in spec.sigma.items():
        x = z = 0
        for v in word.x:
            x ^= outcomes[v]
        for v in word.z:
            z ^= outcomes[v]
        branch_words[wire] = make_word(x, z, word.k)
    if nonlocal_branch:
        branch_words["c2"] = make_word(k=-flip * h8)
        factor, label = _nonlocal_factor(theta, flip)
        frame = ByproductOperator(WIRES, branch_words, factor, label)
    else:
        frame = ByproductOperator(WIRES, branch_words)
    return frame_compose(frame_compose(prefactor, frame), sz_frame)


def local_branch_counts(variant, linking_model):
    """Local branches per sx case, in ``success_probability``'s case order.

    Every branch of every accepted linking case gets its whole frame from
    ``composed_frame``; the first error any frame raises propagates.
    """
    cases = list(itertools.product((0, 1), repeat=3)) if linking_model == "uniform" else [(0, 0, 0)]
    vertices = variant.measured_vertices
    counts = []
    for sx in cases:
        local = 0
        if sx in variant.spec.prefactors:
            for sz in cases:
                for bits in itertools.product((0, 1), repeat=len(vertices)):
                    outcomes = dict(zip(vertices, bits))
                    local += composed_frame(variant, outcomes, LinkingByproducts(sx, sz)).is_local
        counts.append(local)
    return counts


def uniformity_draws() -> list[StateVector]:
    """``|000>`` and ``UNIFORMITY_RANDOM_INPUTS`` states drawn from ``default_rng(20250810)``.

    The draw ``toffoli.UNIFORMITY_INPUTS`` writes out as literals, which
    must equal these rows byte for byte.
    """
    rng = np.random.default_rng(20250810)
    inputs = [basis_state(3, 0)]
    for _ in range(UNIFORMITY_RANDOM_INPUTS):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        inputs.append(StateVector(3, amps / np.linalg.norm(amps)))
    return inputs


def uniformity_by_enumeration(variant, linking):
    """The uniformity maximum of one linking case, one ``enumerate_branches`` call per input."""
    pattern = measurement_program(variant, linking)
    expected = 0.5 ** len(pattern.steps)
    worst = 0.0
    for psi in uniformity_draws():
        state = encoded_state(variant, psi, linking)
        for _, probability, _ in enumerate_branches(state, pattern):
            worst = max(worst, abs(probability - expected))
    return worst


def encoded_state_per_row(variant, psi: StateVector, linking) -> StateVector:
    """H on the target, Z then X corruption per wire, ``|+>`` elsewhere, one CZ per edge."""
    psi = apply_operator(psi, (0,), HADAMARD)
    for wire_index, qubit in ((0, 2), (1, 1), (2, 0)):
        if linking.sz[wire_index]:
            psi = apply_operator(psi, (qubit,), PAULI_Z)
        if linking.sx[wire_index]:
            psi = apply_operator(psi, (qubit,), PAULI_X)
    graph = build_resource(variant)
    n = graph.vertex_count
    order = [C1_VERTEX, C2_VERTEX, T_IN_VERTEX]
    order += [v for v in range(n) if v not in order]
    tensor = psi.amplitudes.reshape(2, 2, 2)
    for _ in range(n - 3):
        tensor = np.multiply.outer(tensor, KET_PLUS)
    state = StateVector(n, np.moveaxis(tensor, range(n), [n - 1 - v for v in order]).reshape(-1))
    for i, j, theta in graph.edge_list():
        state = apply_cz_theta_mask(state, i, j, angles.radians(theta))
    return state


def unit_scale(op: np.ndarray) -> np.ndarray:
    return op * np.sqrt(op.shape[0] / np.vdot(op, op).real)


def process_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.trace(a.conj().T @ b)) ** 2 / a.shape[0] ** 2)


def schmidt_values(op: np.ndarray, wire: int) -> np.ndarray:
    """Singular values of the ``wire``-versus-rest matricisation of one 8x8 operator."""
    others = [w for w in range(3) if w != wire]
    axes = [wire, 3 + wire] + others + [3 + w for w in others]
    mat = np.transpose(op.reshape((2,) * 6), axes).reshape(4, 16)
    return np.linalg.svd(mat, compute_uv=False)


def factorisation_local(op: np.ndarray, tol: float = 1e-8) -> bool:
    """Check 9's second locality method on one 8x8 operator, peeling by per-matrix SVD."""
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
