"""Compact measurement-based Toffoli/CCZ resources on weighted graph states.

Three resources are provided, named by qubit count. Vertices follow the
conventional 1-based labels in the documentation; internally everything
is 0-based (vertex v in docs = index v-1 here). Logical wires:

===========  =======================  =====================
wire         six-qubit vertex (1-..)  register qubit (out)
===========  =======================  =====================
control c1   6 (in and out)           2 (most significant)
control c2   1 (in and out)           1
target t     2 in, 5 out              0 (least significant)
===========  =======================  =====================

The six-qubit wiring: maximal edges (2,3), (3,4), (4,5), (3,6), (5,6)
plus weighted edges (1,2,+theta/2), (1,4,-theta/2), (1,6,+theta/2).
Measuring vertices 2, 3, 4 at alpha=0 induces the gate sequence

    CZ(theta/2) on (c2,t); H t; CZ on (c1,t); H t; CZ(-theta/2) on
    (c2,t); H t; CZ on (c1,t); CZ(theta/2) on (c1,c2)

which equals H_t followed by a controlled-controlled phase of theta.
The seven-qubit resource replaces the (1,4) edge with a gadget vertex 7
(maximal edges 1-7, 7-4) so the residual of the x-type measurement
byproduct stays a tensor product; the eight-qubit resource additionally
replaces (1,6) with gadget vertex 8, after which every inherited x-type
corruption can be absorbed as well. This wiring is pinned by the
end-to-end branch-equivalence tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import angles
from .angles import Angle
from .graphstate import InputAssignment, WeightedGraph, build_state_with_input
from .mbqc import (
    ByproductOperator,
    MeasurementBasis,
    Pattern,
    PatternStep,
    WireWord,
    basis_states,
    enumerate_branches,
    frame_compose,
    frame_identity,
    make_word,
    run_branch,
)
from .qstate import (
    CNOT,
    CZ,
    HADAMARD,
    ID2,
    PAULI_X,
    PAULI_Z,
    StateVector,
    apply_single,
    basis_state,
    kron_all,
    reorder_qubits,
    rz,
)
from .verify import is_local, unit_scale

WIRES = ("c1", "c2", "t")
VARIANT_KINDS = ("six", "seven", "eight")

# Internal 0-based vertex indices (docs label = index + 1).
C2_VERTEX = 0
T_IN_VERTEX = 1
T_OUT_VERTEX = 4
C1_VERTEX = 5
GADGET_MID = 6  # seven-qubit gadget between c2 and the t wire
GADGET_TOP = 7  # eight-qubit gadget between c2 and c1

# Inherited x-corruption patterns (c1, c2, t) the six/seven-qubit
# resources can absorb; the rest force a failure before any measurement.
RECOVERABLE_LINKING = frozenset({(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)})

MAXIMAL = Fraction(1)  # pi


class ZeroProbabilityBranchError(ValueError):
    """The requested outcome branch has probability zero."""


class UnrecoverableLinkingError(ValueError):
    """The inherited x-corruption cannot be absorbed by this resource."""


@dataclass(frozen=True)
class LinkingByproducts:
    """Inherited corruption bits per wire, in (c1, c2, t) order."""

    sx: tuple[int, int, int] = (0, 0, 0)
    sz: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        for bits in (self.sx, self.sz):
            if len(bits) != 3 or any(b not in (0, 1) for b in bits):
                raise ValueError("linking byproducts are three bits per kind")


NO_LINKING = LinkingByproducts()


@dataclass(frozen=True)
class ResourceVariant:
    kind: str
    theta: Fraction = Fraction(1)

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown variant {self.kind!r}")
        if not isinstance(self.theta, Fraction):
            raise ValueError("theta must be a Fraction (rational multiple of pi)")
        if angles.is_zero(self.theta):
            raise ValueError("theta must be nonzero")

    @property
    def measured_vertices(self) -> tuple[int, ...]:
        base = (T_IN_VERTEX, 2, 3)
        if self.kind == "six":
            return base
        if self.kind == "seven":
            return base + (GADGET_MID,)
        return base + (GADGET_MID, GADGET_TOP)

    @property
    def vertex_count(self) -> int:
        return {"six": 6, "seven": 7, "eight": 8}[self.kind]


def build_resource(variant: ResourceVariant) -> WeightedGraph:
    """The gate resource graph with logical roles marked on its inputs."""
    theta = variant.theta
    half = theta / 2
    edges = [
        (1, 2, MAXIMAL),
        (2, 3, MAXIMAL),
        (3, 4, MAXIMAL),
        (2, 5, MAXIMAL),
        (4, 5, MAXIMAL),
        (0, 1, half),
    ]
    if variant.kind == "six":
        edges.append((0, 3, -half))
        edges.append((0, 5, half))
    elif variant.kind == "seven":
        edges += [(0, 6, MAXIMAL), (6, 3, MAXIMAL), (0, 5, half)]
    else:
        edges += [(0, 6, MAXIMAL), (6, 3, MAXIMAL), (0, 7, MAXIMAL), (7, 5, MAXIMAL)]
    # The H-basis target encoding is applied when a logical input is
    # embedded (see encoded_state), not to the bare resource state.
    inputs = {
        C1_VERTEX: InputAssignment(role="c1"),
        C2_VERTEX: InputAssignment(role="c2"),
        T_IN_VERTEX: InputAssignment(role="t"),
    }
    return WeightedGraph(variant.vertex_count, edges, inputs)


@lru_cache(maxsize=None)
def _resource_graph(variant: ResourceVariant) -> WeightedGraph:
    return build_resource(variant)


# --- reference matrices (wire order c1, c2, t; c1 most significant) ---


def toffoli_matrix() -> np.ndarray:
    mat = np.eye(8, dtype=complex)
    mat[[6, 7]] = mat[[7, 6]]
    return mat


def ccz_theta_matrix(theta: float) -> np.ndarray:
    mat = np.eye(8, dtype=complex)
    mat[7, 7] = np.exp(1j * theta)
    return mat


def hadamard_on_target() -> np.ndarray:
    return kron_all(ID2, ID2, HADAMARD)


def _pair_phase(wire_a: int, wire_b: int, theta: float) -> np.ndarray:
    """CZ(theta) between two of the three wires, as an 8x8 diagonal."""
    idx = np.arange(8)
    bits_a = (idx >> (2 - wire_a)) & 1
    bits_b = (idx >> (2 - wire_b)) & 1
    return np.diag(np.exp(1j * theta * bits_a * bits_b)).astype(complex)


@dataclass(frozen=True)
class CircuitGate:
    name: str
    wires: tuple[str, ...]
    angle: Angle | None = None


def induced_circuit(sx=(0, 0, 0), theta: Fraction = Fraction(1)) -> list[CircuitGate]:
    """Gate sequence the six-qubit resource realises, in time order.

    Inherited x-corruptions flip the sign of each weighted gate they
    cross: the two (c2,t) phases flip together with ``sx_c2 xor sx_t``
    and the (c1,c2) phase with ``sx_c1 xor sx_c2``, so the middle phase
    always stays opposite to the outer two.
    """
    half = theta / 2
    flip_ct = -1 if (sx[1] ^ sx[2]) else 1
    flip_cc = -1 if (sx[0] ^ sx[1]) else 1
    return [
        CircuitGate("cz_theta", ("c2", "t"), angles.normalized(flip_ct * half)),
        CircuitGate("h", ("t",)),
        CircuitGate("cz", ("c1", "t")),
        CircuitGate("h", ("t",)),
        CircuitGate("cz_theta", ("c2", "t"), angles.normalized(-flip_ct * half)),
        CircuitGate("h", ("t",)),
        CircuitGate("cz", ("c1", "t")),
        CircuitGate("cz_theta", ("c1", "c2"), angles.normalized(flip_cc * half)),
    ]


def target_unitary(theta: Angle) -> np.ndarray:
    """Time-ordered product of the induced gate sequence (8x8).

    For theta = pi this equals ``toffoli_matrix() @ hadamard_on_target()``;
    in general it is H on the target followed by a controlled-controlled
    phase of theta.
    """
    rad = angles.radians(theta)
    ht = hadamard_on_target()
    mat = np.eye(8, dtype=complex)
    for gate in (
        _pair_phase(1, 2, rad / 2),
        ht,
        _pair_phase(0, 2, np.pi),
        ht,
        _pair_phase(1, 2, -rad / 2),
        ht,
        _pair_phase(0, 2, np.pi),
        _pair_phase(0, 1, rad / 2),
    ):
        mat = gate @ mat
    return mat


def logical_target(variant: ResourceVariant, hadamard_encode: bool = True) -> np.ndarray:
    """Gate the resource performs on the logical input.

    With the default H-basis target encoding and theta = pi the net gate
    is exactly the Toffoli; without the encoding it is ``target_unitary``.
    """
    raw = target_unitary(variant.theta)
    return raw @ hadamard_on_target() if hadamard_encode else raw


# --- measurement programs ---


def _combine(*mats: np.ndarray | None) -> np.ndarray | None:
    """Left-to-right product of absorbed corrections, skipping identities."""
    acc = None
    for mat in mats:
        if mat is None:
            continue
        acc = mat.copy() if acc is None else acc @ mat
    return acc


def _check_recoverable(variant: ResourceVariant, linking: LinkingByproducts):
    if variant.kind in ("six", "seven") and linking.sx not in RECOVERABLE_LINKING:
        raise UnrecoverableLinkingError(
            f"x-corruption {linking.sx} is a guaranteed failure on the "
            f"{variant.kind}-qubit resource"
        )


def measurement_program(
    variant: ResourceVariant, linking: LinkingByproducts = NO_LINKING
) -> Pattern:
    """Measurement order, angles and absorbed corrections for one run.

    The six-qubit program measures vertices 2, 3, 4 at alpha=0 with the
    x-corruption corrections folded into the bases. The gadget variants
    measure vertex 3 first and adapt the bases of vertices 4 and 7 on its
    outcome (X on 4, Z on 7); vertex 4 moves to alpha=theta/4 and the
    gadget vertices use the H-composed basis at -theta/4 and +theta/4.
    """
    _check_recoverable(variant, linking)
    theta = variant.theta
    half_neg = rz(angles.radians(-theta / 2))
    half_pos = rz(angles.radians(theta / 2))
    quarter = theta / 4
    sx_c1, sx_c2, sx_t = linking.sx

    if variant.kind == "six":
        absorb = {1: None, 2: None, 3: None}
        if linking.sx == (0, 1, 0):
            absorb[1], absorb[3] = half_neg, half_pos
        elif linking.sx == (1, 0, 1):
            absorb[2] = PAULI_Z
        elif linking.sx == (1, 1, 1):
            absorb[1], absorb[2], absorb[3] = half_neg, PAULI_Z, half_pos
        return Pattern(
            [
                PatternStep(1, MeasurementBasis(absorbed=absorb[1])),
                PatternStep(2, MeasurementBasis(absorbed=absorb[2])),
                PatternStep(3, MeasurementBasis(absorbed=absorb[3])),
            ]
        )

    if variant.kind == "seven":
        base4 = base7 = None
        if linking.sx == (0, 1, 0):
            base2, base4 = half_neg, PAULI_X
        elif linking.sx == (1, 0, 1):
            base2, base4, base7 = None, PAULI_X, PAULI_Z
        elif linking.sx == (1, 1, 1):
            base2, base4, base7 = half_neg, None, PAULI_Z
        else:
            base2 = None
        adaptive4 = _adaptive(2, quarter, False, base4, PAULI_X)
        adaptive7 = _adaptive(2, -quarter, True, base7, PAULI_Z)
        return Pattern(
            [
                PatternStep(2, MeasurementBasis()),
                PatternStep(1, MeasurementBasis(absorbed=base2)),
                PatternStep(3, adaptive4),
                PatternStep(GADGET_MID, adaptive7),
            ]
        )

    i, j, k = sx_c1, sx_c2, sx_t
    base2 = half_neg if j else None
    base3 = PAULI_Z if i else None
    base4 = PAULI_X if j else None
    base8 = PAULI_Z if (i ^ k) else None
    adaptive4 = _adaptive(2, quarter, False, base4, PAULI_X, outcome_first=True)
    adaptive7 = _adaptive(2, -quarter, True, None, PAULI_Z, outcome_first=True)
    return Pattern(
        [
            PatternStep(2, MeasurementBasis(absorbed=base3)),
            PatternStep(1, MeasurementBasis(absorbed=base2)),
            PatternStep(3, adaptive4),
            PatternStep(GADGET_MID, adaptive7),
            PatternStep(GADGET_TOP, MeasurementBasis(alpha=quarter, hadamard=True, absorbed=base8)),
        ]
    )


def _adaptive(
    trigger_vertex: int,
    alpha: Angle,
    hadamard: bool,
    static: np.ndarray | None,
    conditional: np.ndarray,
    outcome_first: bool = False,
):
    """Basis whose absorbed correction gains ``conditional`` on outcome 1.

    ``outcome_first`` controls whether the outcome-dependent factor is
    applied after (True) or before (False) the static corruption factor;
    in all programs here the two commute.
    """

    def resolve(outcomes):
        extra = conditional if outcomes.get(trigger_vertex) else None
        combined = _combine(extra, static) if outcome_first else _combine(static, extra)
        return MeasurementBasis(alpha=alpha, hadamard=hadamard, absorbed=combined)

    return resolve


# --- predicted byproduct frames ---


def _nonlocal_factor_pi() -> tuple[np.ndarray, str]:
    factor = kron_all(ID2, CNOT) @ kron_all(CZ, ID2)
    return factor, "CNOT(c2,t).CZ(c1,c2)"


def _nonlocal_factor(theta: Fraction, flip: int) -> tuple[np.ndarray, str]:
    """Residual of the mid-circuit phase flip, pushed to the end of the run."""
    if theta % 2 in (Fraction(1), Fraction(-1)):
        return _nonlocal_factor_pi()
    rad = angles.radians(theta) * flip
    tail = (
        _pair_phase(0, 1, angles.radians(theta / 2) * flip)
        @ _pair_phase(0, 2, np.pi)
        @ hadamard_on_target()
    )
    factor = tail @ _pair_phase(1, 2, rad) @ tail.conj().T
    return factor, f"conjugated CZ({angles.describe(theta)}) on (c2,t)"


def _sigma_words(variant: ResourceVariant, outcomes) -> dict[str, WireWord]:
    """Measurement-byproduct words, before linking corrections."""
    s2, s3, s4 = outcomes[1], outcomes[2], outcomes[3]
    if variant.kind == "six":
        return {
            "c1": make_word(z=s4),
            "c2": WireWord(),  # s3-dependent part handled by the caller
            "t": make_word(x=s2 ^ s4, z=s3),
        }
    s7 = outcomes[GADGET_MID]
    if variant.kind == "seven":
        return {
            "c1": make_word(z=s4 ^ s7),
            "c2": make_word(z=s7, k=1),
            "t": make_word(x=s2 ^ s4 ^ s7, z=s3),
        }
    s8 = outcomes[GADGET_TOP]
    return {
        "c1": make_word(z=s4 ^ s7 ^ s8, k=-1),
        "c2": make_word(z=s7 ^ s8),
        "t": make_word(x=s2 ^ s4 ^ s7, z=s3),
    }


def _frame(c1=WireWord(), c2=WireWord(), t=WireWord(), **kwargs) -> ByproductOperator:
    return ByproductOperator(WIRES, {"c1": c1, "c2": c2, "t": t}, **kwargs)


def predicted_sigma(
    variant: ResourceVariant,
    outcomes,
    linking: LinkingByproducts = NO_LINKING,
) -> ByproductOperator:
    """Residual operator left on the logical wires for one branch.

    The branch output always equals ``frame_to_operator(sigma) @ gate``
    applied to the logical input, up to a global phase. The frame is
    non-local exactly for the six-qubit resource with outcome s3 = 1.
    """
    _check_recoverable(variant, linking)
    needed = set(variant.measured_vertices)
    if set(outcomes) != needed:
        raise ValueError(f"outcomes must cover vertices {sorted(needed)}")
    theta = variant.theta
    if variant.kind in ("seven", "eight") and theta % 2 != Fraction(1):
        raise ValueError("gadget-variant frames are tabulated for theta = pi only")
    h8 = angles.eighths(theta / 2)  # theta/2 in units of pi/4

    words = _sigma_words(variant, outcomes)
    frame = _frame(**words)
    sx = linking.sx

    if variant.kind == "six":
        s3 = outcomes[2]
        flip = -1 if (sx[1] ^ sx[2]) else 1
        if s3:
            if h8 is None:
                raise ValueError(
                    "s3 = 1 frames need theta on the pi/4 grid; "
                    "this branch is classified by its extracted residual instead"
                )
            frame.words["c2"] = make_word(k=-flip * h8)
            factor, label = _nonlocal_factor(theta, flip)
            frame.nonlocal_factor, frame.nonlocal_label = factor, label
        prefactor = _six_prefactor(sx, h8)
    elif variant.kind == "seven":
        prefactor = _seven_prefactor(sx)
    else:
        prefactor = _eight_prefactor(sx)

    combined = frame_compose(prefactor, frame)
    sz_frame = _frame(
        c1=make_word(z=linking.sz[0]),
        c2=make_word(z=linking.sz[1]),
        t=make_word(x=linking.sz[2]),
    )
    return frame_compose(combined, sz_frame)


def _six_prefactor(sx, h8) -> ByproductOperator:
    if sx == (0, 0, 0):
        return frame_identity(WIRES)
    if h8 is None:
        raise ValueError("linking corrections need theta on the pi/4 grid")
    if sx == (0, 1, 0):
        return _frame(c1=make_word(k=h8), c2=make_word(x=1))
    if sx == (1, 0, 1):
        return _frame(c1=make_word(x=1), c2=make_word(k=h8))
    return _frame(c1=make_word(x=1, k=-h8), c2=make_word(x=1, k=-h8))


def _seven_prefactor(sx) -> ByproductOperator:
    if sx == (0, 0, 0):
        return frame_identity(WIRES)
    if sx == (0, 1, 0):
        return _frame(c1=make_word(k=2), c2=make_word(x=1, k=-2))
    if sx == (1, 0, 1):
        return _frame(c1=make_word(x=1), c2=make_word(k=2), t=make_word(z=1))
    return _frame(
        c1=make_word(x=1, k=-2), c2=make_word(x=1, z=1), t=make_word(z=1)
    )


def _eight_prefactor(sx) -> ByproductOperator:
    i, j, k = sx
    prefactor = frame_identity(WIRES)
    if i:
        prefactor = frame_compose(prefactor, _frame(c1=make_word(x=1), t=make_word(z=1)))
    if j:
        prefactor = frame_compose(prefactor, _frame(c1=make_word(k=2), c2=make_word(x=1)))
    if k:
        prefactor = frame_compose(
            prefactor, _frame(c1=make_word(k=2), c2=make_word(k=2), t=make_word(z=1))
        )
    if j and k:
        prefactor = frame_compose(prefactor, _frame(c1=make_word(z=1), c2=make_word(z=1)))
    return prefactor


# --- end-to-end gate runs ---


def encoded_state(
    variant: ResourceVariant,
    input_state: StateVector,
    linking: LinkingByproducts = NO_LINKING,
    hadamard_encode: bool = True,
) -> StateVector:
    """Physical resource state for a logical 3-qubit input.

    The target component is pushed through H when ``hadamard_encode`` is
    set; the inherited corruption acts on the physical input vertices
    (z before x on each wire), exactly as byproducts arriving from an
    earlier part of a larger computation would.
    """
    if input_state.num_qubits != 3:
        raise ValueError("logical input must be a 3-qubit state")
    psi = input_state
    if hadamard_encode:
        psi = apply_single(psi, 0, HADAMARD)
    for wire_index, qubit in ((0, 2), (1, 1), (2, 0)):
        if linking.sz[wire_index]:
            psi = apply_single(psi, qubit, PAULI_Z)
        if linking.sx[wire_index]:
            psi = apply_single(psi, qubit, PAULI_X)
    graph = _resource_graph(variant)
    return build_state_with_input(graph, psi, (C1_VERTEX, C2_VERTEX, T_IN_VERTEX))


def branch_map(
    variant: ResourceVariant,
    linking: LinkingByproducts,
    outcomes,
    hadamard_encode: bool = True,
):
    """Linear map from the logical input to the unnormalised branch output.

    The output is reported in wire order (c1, c2, t) with c1 on the most
    significant qubit; its squared norm is the branch probability.
    """
    pattern = measurement_program(variant, linking)
    outcomes = dict(outcomes)

    def run(psi: StateVector) -> StateVector:
        state = encoded_state(variant, psi, linking, hadamard_encode)
        _, out = run_branch(state, pattern, outcomes)
        # Surviving vertices (c2, t-out, c1) sit on qubits (0, 1, 2).
        return reorder_qubits(out, (1, 0, 2))

    return run


def branch_outputs(
    variant: ResourceVariant,
    linking: LinkingByproducts,
    inputs: np.ndarray,
    hadamard_encode: bool = True,
) -> dict[tuple[int, ...], np.ndarray]:
    """Unnormalised outputs of every measurement branch for a batch of inputs.

    ``inputs`` is a ``(B, 8)`` array whose rows are logical input states
    (wire order c1 c2 t). The result maps each outcome tuple, in
    ``variant.measured_vertices`` order, to an ``(8, B)`` array whose
    column ``b`` is the branch output for input row ``b``; with the
    identity as input that array is the branch operator.

    Each input row is embedded once with ``encoded_state``. The outcome
    tree of ``measurement_program`` is then walked depth first: every
    node resolves its adaptive basis from the outcomes above it and
    projects both children from the shared parent tensor, with the
    arithmetic of ``qstate.project``. Every output is therefore bitwise
    equal to ``branch_map(variant, linking, outcomes, hadamard_encode)``
    applied to the same row.
    """
    pattern = measurement_program(variant, linking)
    inputs = np.asarray(inputs, dtype=complex)
    if inputs.ndim != 2 or inputs.shape[1] != 8:
        raise ValueError(f"inputs must have shape (B, 8), got {inputs.shape}")
    batch = inputs.shape[0]
    n = variant.vertex_count
    states = [
        encoded_state(variant, StateVector(3, row), linking, hadamard_encode).amplitudes
        for row in inputs
    ]
    tensor = np.stack(states).reshape((batch,) + (2,) * n)

    # Tensor axis of each measured vertex when its turn comes: qubit q of
    # an r-qubit register sits on axis 1 + (r - 1 - q) after the batch axis.
    position = list(range(n))
    axes = []
    for step in pattern.steps:
        q = position.index(step.vertex)
        axes.append(len(position) - q)
        position.pop(q)
    # Survivors keep ascending label order; put them in wire order c1 c2 t.
    wire_axes = [len(position) - position.index(v) for v in (C1_VERTEX, C2_VERTEX, T_OUT_VERTEX)]
    leaf_order = [0] + wire_axes

    outputs = {}

    def walk(depth, tensor, seen):
        if depth == len(pattern.steps):
            key = tuple(seen[v] for v in variant.measured_vertices)
            leaf = np.transpose(tensor, leaf_order).reshape(batch, 8)
            outputs[key] = np.ascontiguousarray(leaf.T)
            return
        step = pattern.steps[depth]
        basis = step.basis(seen) if callable(step.basis) else step.basis
        t0 = np.take(tensor, 0, axis=axes[depth])
        t1 = np.take(tensor, 1, axis=axes[depth])
        for bit, ket in enumerate(basis_states(basis)):
            child = np.conj(ket[0]) * t0 + np.conj(ket[1]) * t1
            walk(depth + 1, child, {**seen, step.vertex: bit})

    walk(0, tensor, {})
    return dict(sorted(outputs.items()))


@dataclass
class GateRun:
    variant: ResourceVariant
    linking: LinkingByproducts
    outcomes: dict
    probability: float
    sigma: ByproductOperator | None
    success: bool
    output: StateVector


def run_gate(
    variant: ResourceVariant,
    input_state: StateVector,
    linking: LinkingByproducts = NO_LINKING,
    outcomes=None,
    hadamard_encode: bool = True,
) -> GateRun:
    """Run one measurement branch of the gate on a logical input."""
    if outcomes is None:
        outcomes = {v: 0 for v in variant.measured_vertices}
    out = branch_map(variant, linking, outcomes, hadamard_encode)(input_state)
    probability = out.norm_sq / input_state.norm_sq
    if probability < 1e-12:
        raise ZeroProbabilityBranchError(f"branch {outcomes} has probability 0")
    try:
        sigma = predicted_sigma(variant, outcomes, linking)
    except ValueError:
        # No tabulated frame for this angle: classify the residual
        # extracted from the simulated branch operator instead.
        sigma = None
        key = tuple(outcomes[v] for v in variant.measured_vertices)
        branch_op = branch_outputs(variant, linking, np.eye(8), hadamard_encode)[key]
        target_inv = np.linalg.inv(logical_target(variant, hadamard_encode))
        success = is_local(unit_scale(branch_op @ target_inv)).is_local
    else:
        success = sigma.is_local
    return GateRun(
        variant, linking, dict(outcomes), probability, sigma, success, out.normalized()
    )


# --- success probability ---


def _all_bits(n):
    return list(itertools.product((0, 1), repeat=n))


@dataclass
class LinkingCase:
    sx: tuple[int, int, int]
    recoverable: bool
    local_branches: int
    total_branches: int


@dataclass
class SuccessReport:
    variant: ResourceVariant
    linking_model: str
    p_success: Fraction
    cases: list[LinkingCase]
    branch_probability: Fraction
    uniformity_checked: bool
    max_uniformity_error: float

    @property
    def p_float(self) -> float:
        return float(self.p_success)


def verify_branch_uniformity(
    variant: ResourceVariant,
    linking: LinkingByproducts = NO_LINKING,
    seeds=(0, 1),
) -> float:
    """Max deviation of any branch probability from 2**-m over test inputs."""
    pattern = measurement_program(variant, linking)
    m = len(pattern.steps)
    expected = 0.5**m
    rng = np.random.default_rng(20250810)
    inputs = [basis_state(3, 0)]
    for _ in seeds:
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        inputs.append(StateVector(3, amps / np.linalg.norm(amps)))
    worst = 0.0
    for psi in inputs:
        state = encoded_state(variant, psi, linking)
        for _, probability, _ in enumerate_branches(state, pattern):
            worst = max(worst, abs(probability - expected))
    return worst


def success_probability(
    variant: ResourceVariant,
    linking_model: str = "none",
    check_uniformity: bool = True,
) -> SuccessReport:
    """Probability-weighted fraction of branches with a tensor-product residual.

    ``none`` runs the bare gate; ``uniform`` averages over all eight
    x-corruption and all eight z-corruption patterns with weight 1/8 each.
    Branch probabilities are verified uniform by simulation, then counted
    with exact rational arithmetic.
    """
    if linking_model not in ("none", "uniform"):
        raise ValueError(f"unknown linking model {linking_model!r}")
    uniform = linking_model == "uniform"
    sx_cases = _all_bits(3) if uniform else [(0, 0, 0)]
    sz_cases = _all_bits(3) if uniform else [(0, 0, 0)]
    m = len(variant.measured_vertices)
    branch_fraction = Fraction(1, 2**m)
    case_weight = Fraction(1, len(sx_cases))

    max_err = 0.0
    if check_uniformity:
        probes = [(0, 0, 0), (1, 1, 1)] if uniform else [(0, 0, 0)]
        for sx in sx_cases:
            if variant.kind in ("six", "seven") and sx not in RECOVERABLE_LINKING:
                continue
            for sz in probes:
                err = verify_branch_uniformity(variant, LinkingByproducts(sx, sz))
                max_err = max(max_err, err)
        if max_err > 1e-10:
            raise AssertionError(
                f"branch probabilities deviate from uniform by {max_err}"
            )

    total = Fraction(0)
    cases = []
    for sx in sx_cases:
        if variant.kind in ("six", "seven") and sx not in RECOVERABLE_LINKING:
            cases.append(LinkingCase(sx, False, 0, 2**m * len(sz_cases)))
            continue
        local = 0
        for sz in sz_cases:
            linking = LinkingByproducts(sx, sz)
            for bits in _all_bits(m):
                outcomes = dict(zip(variant.measured_vertices, bits))
                sigma = predicted_sigma(variant, outcomes, linking)
                if sigma.is_local:
                    local += 1
        cases.append(LinkingCase(sx, True, local, 2**m * len(sz_cases)))
        total += case_weight * Fraction(local, len(sz_cases)) * branch_fraction
    return SuccessReport(
        variant,
        linking_model,
        total,
        cases,
        branch_fraction,
        check_uniformity,
        max_err,
    )
