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
Measuring vertices 2, 3, 4 (in that order) at alpha=0 induces the gate
sequence

    CZ(theta/2) on (c2,t); H t; CZ on (c1,t); H t; CZ(-theta/2) on
    (c2,t); H t; CZ on (c1,t); CZ(theta/2) on (c1,c2)

which equals a controlled-controlled phase of theta followed by H on
the target (the operator ``H_t @ CCZ(theta)``).
The seven-qubit resource replaces the (1,4) edge with a gadget vertex 7
(maximal edges 1-7, 7-4) so the residual of the x-type measurement
byproduct stays a tensor product; it measures 3, 2, 4, 7. The
eight-qubit resource additionally replaces (1,6) with gadget vertex 8
(maximal edges 1-8, 8-6), after which every inherited x-type corruption
can be absorbed as well; it measures 3, 2, 4, 7, 8. This wiring is
pinned by the end-to-end branch-equivalence tests.

Each resource is one ``VariantSpec`` record in ``VARIANT_SPECS``: its
edges, its measurement schedule with the adaptive rules, its byproduct
parities, its non-local words and its linking prefactors. The functions
below read that table and never branch on the variant's name, so a new
resource is a new record.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Sequence

import numpy as np

from . import angles
from .angles import Angle
from .graphstate import InputAssignment, WeightedGraph, embed_input_rows
from .mbqc import (
    BasisLike,
    ByproductOperator,
    MeasurementBasis,
    Pattern,
    PatternStep,
    WORDS,
    frame_to_operator,
    make_word,
    measured_qubits,
    outcome_row,
    outcome_tree_leaves,
    word_tables,
)
from .qstate import (
    CNOT,
    CZ,
    HADAMARD,
    ID2,
    PAULI_X,
    PAULI_Z,
    StateVector,
    _phase_both_set,
    apply_matrix,
    kron_all,
    norms_sq,
    rz,
)
from .verify import is_local, unit_scale

WIRES = ("c1", "c2", "t")

# Internal 0-based vertex indices (docs label = index + 1).
C2_VERTEX = 0
T_IN_VERTEX = 1
T_OUT_VERTEX = 4
C1_VERTEX = 5
GADGET_MID = 6  # seven-qubit gadget between c2 and the t wire
GADGET_TOP = 7  # eight-qubit gadget between c2 and c1

MAXIMAL = Fraction(1)  # pi
# The two weighted-edge tokens of the spec table.
PLUS_HALF, MINUS_HALF = "+theta/2", "-theta/2"

# The branch-uniformity inputs, one read-only row each: |000>, then
# UNIFORMITY_RANDOM_INPUTS seeded random states. Those are the draws
# ``a = rng.normal(size=8) + 1j * rng.normal(size=8)``, ``a / np.linalg.norm(a)``
# of ``np.random.default_rng(20250810)``, written out as repr floats (which
# round-trip bit for bit) so that the check runs no generator.
# ``uniformity_draws`` in tests/reference.py draws them again, and a test
# pins every bit.
UNIFORMITY_RANDOM_INPUTS = 2
UNIFORMITY_INPUTS = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [
            0.3176498725666158-0.014012588288986712j, -0.11037603711722097+0.2957812955939738j,
            -0.059453925574733446+0.20747743412764955j, 0.19962777291618833-0.4880784104474858j,
            0.05739211479971105-0.13584172752293447j, -0.45779539261317476-0.238997195811895j,
            -0.2748126200381812+0.32946230671154064j, 0.04399317497591151+0.011551018580421093j,
        ],
        [
            0.014268707457367353+0.0667349176329392j, 0.23210148631132135-0.2167077932464727j,
            0.19682344177287658-0.20488056171592728j, 0.010506548201655528+0.32786023584956747j,
            -0.02577690065156813-0.013420096334295752j, -0.4609626158945517-0.6839876279419392j,
            -0.128631405398935+0.05909739291832282j, 0.0611904866838794+0.035189225047854635j,
        ],
    ],
    dtype=np.complex128,
)
UNIFORMITY_INPUTS.flags.writeable = False


class ZeroProbabilityBranchError(ValueError):
    """The requested outcome branch has probability zero."""


class UnrecoverableLinkingError(ValueError):
    """The inherited x-corruption cannot be absorbed by this resource."""


class FrameUnavailable(ValueError):
    """The frame table has no entry for this angle."""


_BIT_TRIPLES = frozenset(itertools.product((0, 1), repeat=3))


@dataclass(frozen=True)
class LinkingByproducts:
    """Inherited corruption bits per wire, in (c1, c2, t) order."""

    sx: tuple[int, int, int] = (0, 0, 0)
    sz: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        # Stored as tuples, so the record hashes (a list did not). A bit is the
        # int 0 or 1: 1.0 and True equal 1, and a float 1.0 then fails at ``^``.
        # No generator: success_probability builds about 80 per benchmark pass.
        for name in ("sx", "sz"):
            value = getattr(self, name)
            bits = tuple(value) if isinstance(value, (tuple, list)) else ()
            ints = len(bits) == 3 and type(bits[0]) is type(bits[1]) is type(bits[2]) is int
            if not ints or bits not in _BIT_TRIPLES:
                raise ValueError(f"{name} must be three bits, each the int 0 or 1, got {value!r}")
            if bits is not value:
                object.__setattr__(self, name, bits)


NO_LINKING = LinkingByproducts()


@dataclass(frozen=True)
class Step:
    """One measurement of a schedule.

    The basis is ``B(quarters * theta/4)``, pushed through H when
    ``hadamard`` is set. The correction named ``static`` is absorbed when
    the inherited sx bits of the wires in ``when`` have odd parity. With a
    ``trigger`` vertex the basis adapts: outcome 1 there multiplies the
    correction named ``conditional`` onto the static one.
    """

    vertex: int
    quarters: int = 0
    hadamard: bool = False
    static: str | None = None
    when: tuple[str, ...] = ()
    trigger: int | None = None
    conditional: str | None = None

    def __post_init__(self):
        # A field without its partner would be read by nothing.
        if (self.static is None) != (not self.when):
            raise ValueError(f"step on vertex {self.vertex}: static and when come together")
        if (self.trigger is None) != (self.conditional is None):
            raise ValueError(f"step on vertex {self.vertex}: trigger and conditional come together")


@dataclass(frozen=True)
class Word:
    """One wire's byproduct word ``X^x Z^z Rz(k*pi/4)``.

    ``x`` and ``z`` list the measured vertices whose outcomes XOR into
    each exponent; ``k`` is constant.
    """

    x: tuple[int, ...] = ()
    z: tuple[int, ...] = ()
    k: int = 0


@dataclass(frozen=True)
class VariantSpec:
    """One resource as data.

    ``edges`` carry ``MAXIMAL``, ``PLUS_HALF`` or ``MINUS_HALF``;
    ``schedule`` lists the measurements in the order they run; ``sigma``
    gives each wire's measurement-byproduct word. ``prefactors`` maps each
    accepted sx, in sorted order, to its linking prefactor: per wire
    ``(x, z, k)`` with k in units of theta/2, the identity where a wire is
    left out. Outcome 1 on ``nonlocal_vertex`` leaves the non-local
    residual of the mid-circuit phase flip; on those branches
    ``nonlocal_words`` replaces the sigma word of each wire it names, per
    wire ``(x, z, k)`` with k in units of theta/2, the sign of k flipped
    when the inherited sx bits of c2 and t differ. With ``pi_only`` the
    frame table covers theta = pi alone.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, object], ...]
    schedule: tuple[Step, ...]
    sigma: dict[str, Word]
    prefactors: dict[tuple[int, int, int], dict[str, tuple[int, int, int]]]
    nonlocal_vertex: int | None = None
    nonlocal_words: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    pi_only: bool = False

    def __post_init__(self):
        if (self.nonlocal_vertex is None) != (not self.nonlocal_words):
            raise ValueError("nonlocal_vertex and nonlocal_words come together")
        # A replaced word is read on local branches only, where the bit is 0.
        for wire in self.nonlocal_words:
            if self.nonlocal_vertex in self.sigma[wire].x + self.sigma[wire].z:
                raise ValueError(
                    f"sigma[{wire!r}] reads nonlocal_vertex {self.nonlocal_vertex}, "
                    "whose branches replace that word"
                )

    @cached_property
    def measured_vertices(self) -> tuple[int, ...]:
        """Measured vertices in ascending label order (the outcome-bit order)."""
        return tuple(sorted(step.vertex for step in self.schedule))

    @cached_property
    def branch_words(self) -> tuple[np.ndarray, np.ndarray]:
        """Each branch's ``sigma`` word codes and non-local flag, branch i spelling i."""
        m = len(self.schedule)
        bits = dict(zip(self.measured_vertices, np.arange(2**m) >> np.arange(m)[::-1, None] & 1))
        zero = np.zeros(2**m, dtype=np.intp)
        def parity(vertices):
            return sum((bits[v] for v in vertices), zero) & 1
        words = map(self.sigma.get, WIRES)
        codes = np.stack([make_word(k=w.k).code ^ 8 * parity(w.x) ^ 4 * parity(w.z) for w in words], 1)
        return codes, zero == 1 if self.nonlocal_vertex is None else bits[self.nonlocal_vertex] == 1


# Edges every resource shares: the maximal spine and the (c2, t-in) weight.
_SPINE = (
    (1, 2, MAXIMAL),
    (2, 3, MAXIMAL),
    (3, 4, MAXIMAL),
    (2, 5, MAXIMAL),
    (4, 5, MAXIMAL),
    (0, 1, PLUS_HALF),
)
_T_WORD = Word(x=(1, 3, 6), z=(2,))

# One record per resource; vertices are 0-based (docs label = index + 1).
VARIANT_SPECS = {
    "six": VariantSpec(
        vertex_count=6,
        edges=_SPINE + ((0, 3, MINUS_HALF), (0, 5, PLUS_HALF)),
        schedule=(
            Step(1, static="Rz(-theta/2)", when=("c2",)),
            Step(2, static="Z", when=("c1",)),
            Step(3, static="Rz(theta/2)", when=("c2",)),
        ),
        sigma={"c1": Word(z=(3,)), "c2": Word(), "t": Word(x=(1, 3), z=(2,))},
        prefactors={
            (0, 0, 0): {},
            (0, 1, 0): {"c1": (0, 0, 1), "c2": (1, 0, 0)},
            (1, 0, 1): {"c1": (1, 0, 0), "c2": (0, 0, 1)},
            (1, 1, 1): {"c1": (1, 0, -1), "c2": (1, 0, -1)},
        },
        nonlocal_vertex=2,
        nonlocal_words={"c2": (0, 0, -1)},
    ),
    "seven": VariantSpec(
        vertex_count=7,
        edges=_SPINE + ((0, 6, MAXIMAL), (6, 3, MAXIMAL), (0, 5, PLUS_HALF)),
        schedule=(
            Step(2),
            Step(1, static="Rz(-theta/2)", when=("c2",)),
            Step(3, 1, static="X", when=("c1", "c2"), trigger=2, conditional="X"),
            Step(6, -1, True, static="Z", when=("c1",), trigger=2, conditional="Z"),
        ),
        sigma={"c1": Word(z=(3, 6)), "c2": Word(z=(6,), k=1), "t": _T_WORD},
        prefactors={
            (0, 0, 0): {},
            (0, 1, 0): {"c1": (0, 0, 1), "c2": (1, 0, -1)},
            (1, 0, 1): {"c1": (1, 0, 0), "c2": (0, 0, 1), "t": (0, 1, 0)},
            (1, 1, 1): {"c1": (1, 0, -1), "c2": (1, 1, 0), "t": (0, 1, 0)},
        },
        pi_only=True,
    ),
    "eight": VariantSpec(
        vertex_count=8,
        edges=_SPINE + ((0, 6, MAXIMAL), (6, 3, MAXIMAL), (0, 7, MAXIMAL), (7, 5, MAXIMAL)),
        schedule=(
            Step(2, static="Z", when=("c1",)),
            Step(1, static="Rz(-theta/2)", when=("c2",)),
            Step(3, 1, static="X", when=("c2",), trigger=2, conditional="X"),
            Step(6, -1, True, trigger=2, conditional="Z"),
            Step(7, 1, True, static="Z", when=("c1", "t")),
        ),
        sigma={"c1": Word(z=(3, 6, 7), k=-1), "c2": Word(z=(6, 7)), "t": _T_WORD},
        prefactors={
            (0, 0, 0): {},
            (0, 0, 1): {"c1": (0, 0, 1), "c2": (0, 0, 1), "t": (0, 1, 0)},
            (0, 1, 0): {"c1": (0, 0, 1), "c2": (1, 0, 0)},
            (0, 1, 1): {"c2": (1, 1, 1), "t": (0, 1, 0)},
            (1, 0, 0): {"c1": (1, 0, 0), "t": (0, 1, 0)},
            (1, 0, 1): {"c1": (1, 0, 1), "c2": (0, 0, 1)},
            (1, 1, 0): {"c1": (1, 0, 1), "c2": (1, 0, 0), "t": (0, 1, 0)},
            (1, 1, 1): {"c1": (1, 0, 0), "c2": (1, 1, 1)},
        },
        pi_only=True,
    ),
}
VARIANT_KINDS = tuple(VARIANT_SPECS)


@dataclass(frozen=True)
class ResourceVariant:
    kind: str
    theta: Fraction = Fraction(1)

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown variant {self.kind!r}")
        if not isinstance(self.theta, Fraction):
            raise ValueError("theta must be a Fraction (rational multiple of pi)")
        angles._finite(self.theta, "theta")
        if angles.is_zero(self.theta):
            raise ValueError(f"theta must be nonzero modulo 2pi, got {angles.describe(self.theta)}")

    @property
    def spec(self) -> VariantSpec:
        return VARIANT_SPECS[self.kind]

    @property
    def measured_vertices(self) -> tuple[int, ...]:
        return VARIANT_SPECS[self.kind].measured_vertices

    @property
    def vertex_count(self) -> int:
        return VARIANT_SPECS[self.kind].vertex_count


def build_resource(variant: ResourceVariant) -> WeightedGraph:
    """The gate resource graph with logical roles marked on its inputs."""
    half = variant.theta / 2
    weights = {MAXIMAL: MAXIMAL, PLUS_HALF: half, MINUS_HALF: -half}
    edges = [(i, j, weights[w]) for i, j, w in variant.spec.edges]
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


def hadamard_on_target() -> np.ndarray:
    return kron_all(ID2, ID2, HADAMARD)


def _pair_phase(wire_a: int, wire_b: int, theta: float) -> np.ndarray:
    """CZ(theta) between two of the three wires, as an 8x8 diagonal."""
    diagonal = np.ones((2, 2, 2), dtype=complex)
    _phase_both_set(diagonal, 2 - wire_a, 2 - wire_b, np.exp(1j * theta))
    return np.diag(diagonal.reshape(-1))


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


def _gate_matrix(gate: CircuitGate) -> np.ndarray:
    if gate.name == "h":
        return kron_all(*(HADAMARD if wire in gate.wires else ID2 for wire in WIRES))
    wire_a, wire_b = (WIRES.index(wire) for wire in gate.wires)
    angle = np.pi if gate.angle is None else angles.radians(gate.angle)
    return _pair_phase(wire_a, wire_b, angle)


def target_unitary(theta: Angle) -> np.ndarray:
    """Time-ordered product of ``induced_circuit((0, 0, 0), theta)`` (8x8).

    For theta = pi this equals ``toffoli_matrix() @ hadamard_on_target()``;
    in general it is ``H_t @ CCZ(theta)``: a controlled-controlled phase of
    theta followed by H on the target.
    """
    mat = np.eye(8, dtype=complex)
    for gate in induced_circuit((0, 0, 0), theta):
        mat = _gate_matrix(gate) @ mat
    return mat


def logical_target(variant: ResourceVariant) -> np.ndarray:
    """Gate the resource performs on the logical input.

    This is ``target_unitary`` after the H-basis target encoding of
    ``encoded_state``. At theta = pi it is the Toffoli up to float
    rounding: its entries differ from ``toffoli_matrix()`` by about 5e-16.
    """
    return target_unitary(variant.theta) @ hadamard_on_target()


# --- measurement programs ---


def _recoverable(variant: ResourceVariant, sx) -> bool:
    """Whether the resource can absorb the inherited x-corruption ``sx``."""
    return sx in variant.spec.prefactors


def _check_recoverable(variant: ResourceVariant, linking: LinkingByproducts):
    if not _recoverable(variant, linking.sx):
        raise UnrecoverableLinkingError(
            f"x-corruption {linking.sx} is a guaranteed failure on the "
            f"{variant.kind}-qubit resource"
        )


def measurement_program(
    variant: ResourceVariant, linking: LinkingByproducts = NO_LINKING
) -> Pattern:
    """Measurement order, angles and absorbed corrections for one run.

    Each step picks one of its two bases in ``_step_bases`` by the parity
    of its ``when`` bits of sx, so programs for different sx share their
    basis objects, adaptive callables included, where corrections agree.
    """
    _check_recoverable(variant, linking)
    sx = dict(zip(WIRES, linking.sx))
    steps = []
    for step, bases in zip(variant.spec.schedule, _step_bases(variant)):
        steps.append(PatternStep(step.vertex, bases[sum(sx[w] for w in step.when) & 1]))
    return Pattern(steps)


@lru_cache(maxsize=None)
def _step_bases(variant: ResourceVariant) -> tuple[tuple[BasisLike, BasisLike], ...]:
    """Each schedule step's basis for an even and an odd ``when`` parity.

    One ``MeasurementBasis`` is built per step and product of absorbed
    corrections, its ``absorbed`` array read-only, and a step with a
    trigger adapts between two of them (``_adaptive``), its conditional
    correction multiplied after the static one. Where both are set they
    are the same Pauli, so their product is the identity; it stays a
    computed product because the kets it yields differ from unabsorbed
    kets in the signs of their zeros. Equal products share one basis, so
    seven's untriggered odd-parity X basis is its triggered even one.
    """
    theta = variant.theta
    corrections = {
        "X": PAULI_X,
        "Z": PAULI_Z,
        "Rz(-theta/2)": rz(angles.radians(-theta / 2)),
        "Rz(theta/2)": rz(angles.radians(theta / 2)),
    }
    table = []
    for step in variant.spec.schedule:
        odd = (step.static,) if step.static else ()
        extra = (step.conditional,) if step.trigger is not None else ()
        made = {}
        for names in ((), odd, extra, odd + extra):
            if names not in made:
                absorbed = None
                if names:
                    absorbed = np.array(reduce(np.matmul, map(corrections.get, names)))
                    absorbed.flags.writeable = False
                made[names] = MeasurementBasis(step.quarters * theta / 4, step.hadamard, absorbed)
        if step.trigger is None:
            table.append((made[()], made[odd]))
        else:
            even = _adaptive(step.trigger, made[()], made[extra])
            odd_basis = _adaptive(step.trigger, made[odd], made[odd + extra]) if odd else even
            table.append((even, odd_basis))
    return tuple(table)


def _adaptive(trigger_vertex: int, untriggered: MeasurementBasis, triggered: MeasurementBasis):
    """Basis that is ``triggered`` on outcome 1 of the trigger vertex, else ``untriggered``.

    Returning prebuilt bases lets the walk resolve their kets once per depth.
    """

    def resolve(outcomes):
        return triggered if outcomes.get(trigger_vertex) else untriggered

    return resolve


# --- predicted byproduct frames ---


def _nonlocal_factor(theta: Fraction, flip: int) -> tuple[np.ndarray, str]:
    """Residual of the mid-circuit phase flip, pushed to the end of the run."""
    if theta % 2 in (Fraction(1), Fraction(-1)):
        return kron_all(ID2, CNOT) @ kron_all(CZ, ID2), "CNOT(c2,t).CZ(c1,c2)"
    rad = angles.radians(theta) * flip
    tail = (
        _pair_phase(0, 1, angles.radians(theta / 2) * flip)
        @ _pair_phase(0, 2, np.pi)
        @ hadamard_on_target()
    )
    factor = tail @ _pair_phase(1, 2, rad) @ tail.conj().T
    return factor, f"conjugated CZ({angles.describe(theta)}) on (c2,t)"


class LinkingFrames:
    """The frame table of one linking case, every branch at once.

    Row i, the branch whose outcome bits in ascending vertex order spell i
    (row i of ``branch_outputs``), composes ``(prefactor @ words) @
    sz_frame`` from ``mbqc.word_tables`` with ``frame_compose``'s bits; a
    six-qubit non-local row folds the sz frame into its ``_nonlocal_factor``
    product instead. ``operators`` is the ``frame_to_operator`` stack, byte
    for byte, and ``local_mask`` the verdicts, which read sx and the
    outcomes, never sz. Both take an index array or a boolean mask of rows,
    every row by default; calling the table on an outcome dict gives its
    row's frame (``mbqc.outcome_row``). An sx the resource cannot absorb
    raises ``UnrecoverableLinkingError`` here; a row without a table entry
    raises ``FrameUnavailable``, the first such given row deciding which.
    """

    def __init__(self, variant: ResourceVariant, linking: LinkingByproducts = NO_LINKING):
        _check_recoverable(variant, linking)
        self._spec = spec = variant.spec
        self._kind = variant.kind
        self._theta = theta = variant.theta
        self._h8 = h8 = angles.eighths(theta / 2)  # theta/2 in units of pi/4
        self._flip = -1 if (linking.sx[1] ^ linking.sx[2]) else 1
        entries = spec.prefactors[linking.sx]
        self._unavailable = None
        if spec.pi_only and theta != 1:
            self._unavailable = (
                f"{variant.kind}-qubit frames are tabulated for theta = pi only, "
                f"not theta = {angles.describe(theta)}"
            )
        elif h8 is None and any(k for _, _, k in entries.values()):
            self._unavailable = (
                f"{variant.kind}-qubit linking corrections are tabulated for theta a "
                "multiple of pi/2 only"
            )
        else:
            words = (entries.get(wire, (0, 0, 0)) for wire in WIRES)
            self._prefactor = np.array([make_word(x, z, k * h8 if k else 0).code for x, z, k in words])
        self._sz = np.array([4 * linking.sz[0], 4 * linking.sz[1], 8 * linking.sz[2]])
        self._nonlocal = spec.branch_words[1]

    def _check(self, rows) -> np.ndarray:
        """Each given row's non-local flag, or what the first uncovered row raises."""
        nonlocal_rows = self._nonlocal[rows]
        uncovered = nonlocal_rows & (self._h8 is None)
        if self._unavailable and nonlocal_rows.size and not uncovered[0]:
            raise FrameUnavailable(self._unavailable)
        if uncovered.any():
            raise FrameUnavailable(
                f"{self._kind}-qubit frames with s{self._spec.nonlocal_vertex + 1} = 1 are "
                "tabulated for theta a multiple of pi/2 only, not theta = "
                f"{angles.describe(self._theta)}"
            )
        return nonlocal_rows

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's word codes, in ``WIRES`` order, and global phase."""
        branch = self._spec.branch_words[0].copy()
        if self._h8 is not None:  # else the non-local rows are uncovered
            for wire, (x, z, k) in self._spec.nonlocal_words.items():
                word = make_word(x, z, self._flip * k * self._h8)
                branch[self._nonlocal, WIRES.index(wire)] = word.code
        # Python complex products (object arrays), in frame_compose's order:
        # each wire's phase, then the sz frame's unit phase, then each sz wire's.
        products, phases, _ = word_tables()
        codes = products[self._prefactor, branch]
        phase = np.full(len(branch), 1.0 + 0.0j, dtype=object)
        for extra in [*phases[self._prefactor, branch].T, 1.0 + 0.0j]:
            phase = phase * extra
        local_codes, local_phase = products[codes, self._sz], phase
        for extra in phases[codes, self._sz].T:
            local_phase = local_phase * extra
        local = ~self._nonlocal
        local_phase = np.where(local, local_phase, phase).astype(complex)
        return np.where(local[:, None], local_codes, codes), local_phase

    def _nonlocal_tail(self) -> tuple[np.ndarray, str]:
        """The non-local factor with the sz frame folded in, and its label."""
        factor, label = _nonlocal_factor(self._theta, self._flip)
        sz_frame = ByproductOperator(WIRES, {w: WORDS[c] for w, c in zip(WIRES, self._sz)})
        return factor @ frame_to_operator(sz_frame), label

    def local_mask(self, rows=slice(None)) -> np.ndarray:
        """Whether each row's frame is a tensor product, without building it."""
        return ~self._check(rows)

    def operators(self, rows=slice(None)) -> np.ndarray:
        """``frame_to_operator`` of each row's frame, as one ``(B, 8, 8)`` stack."""
        nonlocal_rows = self._check(rows)
        if not nonlocal_rows.size:
            return np.empty((0, 8, 8), dtype=complex)
        codes, phases = (column[rows] for column in self._table)
        entries = word_tables()[2]
        out = entries[0][codes[:, 0]] * entries[1][codes[:, 1]] * entries[2][codes[:, 2]]
        out = out.reshape(-1, 8, 8)
        if nonlocal_rows.any():
            out[nonlocal_rows] = out[nonlocal_rows] @ self._nonlocal_tail()[0]
        return phases[:, None, None] * out

    def __call__(self, outcomes) -> ByproductOperator:
        row = outcome_row(self._spec.measured_vertices, outcomes)
        [nonlocal_branch] = self._check([row])
        codes, phase = (column[row] for column in self._table)
        words = {wire: WORDS[code] for wire, code in zip(WIRES, codes)}
        factor, label = self._nonlocal_tail() if nonlocal_branch else (None, None)
        return ByproductOperator(WIRES, words, factor, label, complex(phase))


def predicted_sigma(
    variant: ResourceVariant,
    outcomes,
    linking: LinkingByproducts = NO_LINKING,
) -> ByproductOperator:
    """Residual operator left on the logical wires for one branch.

    The branch output always equals ``frame_to_operator(sigma) @ gate``
    applied to the logical input, up to a global phase. The frame is
    non-local exactly for the six-qubit resource with outcome s3 = 1.
    Raises ``FrameUnavailable`` where the table has no entry for theta, and
    ``ValueError`` naming the vertex for an outcome other than 0 or 1. This
    is one row of the ``LinkingFrames`` table of the linking case.
    """
    return LinkingFrames(variant, linking)(outcomes)


# --- end-to-end gate runs ---


def encoded_state(
    variant: ResourceVariant,
    input_state: StateVector,
    linking: LinkingByproducts = NO_LINKING,
) -> StateVector:
    """Physical resource state for a logical 3-qubit input.

    The target component is pushed through H (the H-basis target
    encoding); the inherited corruption acts on the physical input
    vertices (z before x on each wire), exactly as byproducts arriving
    from an earlier part of a larger computation would. This is
    ``_encode_rows`` on a batch of one, the build every branch walk makes
    for all of its rows, so it equals each walk's row byte for byte.
    """
    if input_state.num_qubits != 3:
        raise ValueError("logical input must be a 3-qubit state")
    rows = _encode_rows(variant, [linking], input_state.amplitudes[None, :])
    return StateVector(variant.vertex_count, rows[0])


def _encode_rows(
    variant: ResourceVariant, cases: Sequence[LinkingByproducts], inputs: np.ndarray
) -> np.ndarray:
    """``encoded_state`` of every ``(B, 8)`` input row under every linking case.

    Returns ``(len(cases) * B, 2**n)`` rows, case by case, built as one
    batch: one H on the target of every row, the per-case Z and X
    corruption on the rows of the cases that carry it, each one
    ``qstate.apply_matrix`` call on the ``(B, 2, 2, 2)`` rows, then one
    ``embed_input_rows`` call for the whole batch.
    """
    rows = apply_matrix(inputs.reshape(-1, 2, 2, 2), 3, (0,), HADAMARD)
    encoded = np.tile(rows, (len(cases), 1, 1, 1))
    sz = np.repeat([linking.sz for linking in cases], len(inputs), axis=0) == 1
    sx = np.repeat([linking.sx for linking in cases], len(inputs), axis=0) == 1
    for wire_index, qubit in ((0, 2), (1, 1), (2, 0)):
        for flags, pauli in ((sz, PAULI_Z), (sx, PAULI_X)):
            hit = flags[:, wire_index]
            if hit.any():
                encoded[hit] = apply_matrix(encoded[hit], 3, (qubit,), pauli)
    graph = _resource_graph(variant)
    return embed_input_rows(graph, encoded.reshape(-1, 8), (C1_VERTEX, C2_VERTEX, T_IN_VERTEX))


def _case_list(linking) -> list[LinkingByproducts]:
    """One linking case, or a non-empty sequence of cases, as a list of cases."""
    cases = [linking] if isinstance(linking, LinkingByproducts) else list(linking)
    if not cases:
        raise ValueError("no linking cases given: at least one linking case is needed")
    return cases


def _outcome_leaves(
    variant: ResourceVariant, cases: Sequence[LinkingByproducts], inputs: np.ndarray
):
    """Embed each ``(B, 8)`` input row once per linking case and walk them as one batch.

    ``cases`` is a non-empty sequence of linking cases in any mix of sx;
    each case's rows are one block of the walk, under its own
    ``measurement_program``. Returns the ``(len(cases) * B, 2**n)``
    embedded rows, case by case, the surviving vertices in ascending label
    order and the last level of ``mbqc.outcome_tree_leaves``,
    ``(2**m, rows, 2, 2, 2)`` with the outcomes in schedule order. Row
    ``r`` of a leaf is the branch output for embedded row ``r`` in
    ``run_branch``'s qubit layout; each row is projected on its own, so a
    batch gives every row the bits a walk of that row alone would. Every
    row of every case comes from one ``_encode_rows`` build, equal to
    ``encoded_state`` of the row byte for byte.
    """
    patterns = [measurement_program(variant, case) for case in cases]
    inputs = np.asarray(inputs, dtype=complex)
    if inputs.ndim != 2 or inputs.shape[1] != 8:
        raise ValueError(f"inputs must have shape (B, 8), got {inputs.shape}")
    if len(inputs) == 0:
        raise ValueError("inputs is an empty batch: need at least one (8,) row")
    n = variant.vertex_count
    embedded = _encode_rows(variant, cases, inputs)
    _, survivors = measured_qubits(n, patterns[0])
    tensor = embedded.reshape((len(embedded),) + (2,) * n)
    return embedded, survivors, outcome_tree_leaves(patterns, tensor)


def branch_outputs(
    variant: ResourceVariant,
    linking: LinkingByproducts | Sequence[LinkingByproducts],
    inputs: np.ndarray,
) -> np.ndarray | list[np.ndarray]:
    """Unnormalised outputs of every measurement branch for a batch of inputs.

    ``inputs`` is a ``(B, 8)`` array whose rows are logical input states
    (wire order c1 c2 t). For one linking case the result is one
    C-contiguous ``(2**m, 8, B)`` array. Row i is the branch of the
    outcomes ``outcome_prefixes(variant.measured_vertices)[i]``, whose
    bits in ascending vertex order spell i in binary; its column ``b`` is
    the branch output for input row ``b``, and with the identity as input
    the row is the branch operator. ``linking`` may instead be a sequence
    of cases in any mix of sx; the result is then a list with one such
    array per case, each byte-identical to the case's own call, and the
    one-case call is the sequence of one.

    Every row of every case shares one walk of the outcome tree
    (``_outcome_leaves``), each case's rows measured by its own program:
    the walk ``mbqc.enumerate_branches`` makes for a single state, so
    column ``b`` is ``run_branch`` on the embedded row ``b``. One
    transpose puts the outcome axes, which the walk leaves in schedule
    order, into ascending vertex order and the survivors into wire order.
    All rows of all cases are embedded in one batched build per call.
    """
    cases = _case_list(linking)
    _, survivors, leaves = _outcome_leaves(variant, cases, inputs)
    m, r = len(variant.measured_vertices), len(survivors)
    schedule = [step.vertex for step in variant.spec.schedule]
    # Axes: m outcome bits in schedule order, case, batch row, survivor qubits r-1 .. 0.
    tensor = leaves.reshape((2,) * m + (len(cases), -1) + (2,) * r)
    order = [m] + [schedule.index(v) for v in variant.measured_vertices]
    order += [m + 1 + r - survivors.index(v) for v in (C1_VERTEX, C2_VERTEX, T_OUT_VERTEX)]
    order.append(m + 1)
    outputs = np.ascontiguousarray(tensor.transpose(order)).reshape(len(cases), 2**m, 8, -1)
    return outputs[0] if isinstance(linking, LinkingByproducts) else list(outputs)


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
) -> GateRun:
    """Run one measurement branch of the gate on a logical input.

    ``branch_outputs`` walks the input alone, at row ``outcome_row``. Only
    where the frame table has no entry does a second call walk the basis
    columns, whose branch operator is then classified instead.
    """
    if outcomes is None:
        outcomes = {v: 0 for v in variant.measured_vertices}
    _check_recoverable(variant, linking)
    if input_state.num_qubits != 3:
        raise ValueError("logical input must be a 3-qubit state")
    row = outcome_row(variant.measured_vertices, outcomes)
    initial = input_state.norm_sq
    if initial == 0:
        raise ValueError("cannot measure the zero state")
    column = branch_outputs(variant, linking, input_state.amplitudes[None, :])[row]
    out = StateVector(3, column[:, 0])
    probability = out.norm_sq / initial
    if probability < 1e-12:
        raise ZeroProbabilityBranchError(f"branch {outcomes} has probability 0")
    try:
        sigma = predicted_sigma(variant, outcomes, linking)
    except FrameUnavailable:
        # No tabulated frame for this angle: classify the residual
        # extracted from the simulated branch operator instead.
        sigma = None
        operator = branch_outputs(variant, linking, np.eye(8))[row]
        target_inv = np.linalg.inv(logical_target(variant))
        success = is_local(unit_scale(operator @ target_inv)).is_local
    else:
        success = sigma.is_local
    return GateRun(
        variant, linking, dict(outcomes), probability, sigma, success, out.normalized()
    )


# --- success probability ---


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
    linking: LinkingByproducts | Sequence[LinkingByproducts] = NO_LINKING,
) -> float:
    """Max deviation of any branch probability from 2**-m over test inputs.

    ``linking`` is one linking case or a non-empty sequence of cases, in
    any mix of sx. Each case embeds the rows of ``UNIFORMITY_INPUTS``:
    ``|000>`` and ``UNIFORMITY_RANDOM_INPUTS`` seeded random states, whose
    draws are written out so no generator runs. All go in one
    ``_outcome_leaves`` build and walk, the walk
    ``mbqc.enumerate_branches`` makes for one state. Each probability is
    the leaf row's squared norm, taken before any reordering, over the
    embedded input's, both from ``qstate.norms_sq``; so it equals the one
    ``enumerate_branches`` reports for that input and case, and the
    result is the maximum of one call per case.
    """
    embedded, _, leaves = _outcome_leaves(variant, _case_list(linking), UNIFORMITY_INPUTS)
    m = len(variant.measured_vertices)
    probabilities = norms_sq(leaves.reshape(-1, 8)).reshape(2**m, -1) / norms_sq(embedded)
    return float(np.max(np.abs(probabilities - 0.5**m)))


def success_probability(
    variant: ResourceVariant,
    linking_model: str = "none",
    check_uniformity: bool = True,
) -> SuccessReport:
    """Probability-weighted fraction of branches with a tensor-product residual.

    ``none`` runs the bare gate; ``uniform`` averages over all eight
    x-corruption and all eight z-corruption patterns with weight 1/8 each.
    Branch probabilities are verified uniform by simulation: one
    ``verify_branch_uniformity`` call takes every accepted sx with its sz
    probes, in one embedding and one walk, on the fixed inputs of
    ``UNIFORMITY_INPUTS`` (the seeded draws are written out, so the call
    draws no random number and imports no ``numpy.random``). Branches are then
    counted from ``LinkingFrames.local_mask``, which applies the frame
    table's checks and builds no matrix. Its verdict reads sx and the
    outcomes, never sz, so each accepted sx is classified once and its
    count stands for every sz case. The counts are combined with exact
    rational arithmetic.
    """
    if linking_model not in ("none", "uniform"):
        raise ValueError(f"unknown linking model {linking_model!r}")
    uniform = linking_model == "uniform"
    sx_cases = sz_cases = list(itertools.product((0, 1), repeat=3)) if uniform else [(0, 0, 0)]
    m = len(variant.measured_vertices)
    branch_fraction = Fraction(1, 2**m)
    case_weight = Fraction(1, len(sx_cases))

    max_err = 0.0
    if check_uniformity:
        probes = [(0, 0, 0), (1, 1, 1)] if uniform else [(0, 0, 0)]
        max_err = verify_branch_uniformity(
            variant,
            [
                LinkingByproducts(sx, sz)
                for sx in sx_cases
                if _recoverable(variant, sx)
                for sz in probes
            ],
        )
        if max_err > 1e-10:
            raise AssertionError(
                f"branch probabilities deviate from uniform by {max_err}"
            )

    total = Fraction(0)
    cases = []
    for sx in sx_cases:
        if not _recoverable(variant, sx):
            cases.append(LinkingCase(sx, False, 0, 2**m * len(sz_cases)))
            continue
        frames = LinkingFrames(variant, LinkingByproducts(sx))
        local = int(frames.local_mask().sum()) * len(sz_cases)
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
