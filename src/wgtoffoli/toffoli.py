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

What depends on that table, theta and the linking bits alone is built
once per process and shared read-only: each resource's graph, step bases
and per-sx measurement programs, each linking case's frame table
(``_frame_table``) and the target matrices. Each such cache holds at most
``CACHE_SIZE`` keys, and the public matrix builders return fresh, writable
copies. So criterion 10's two acceptance passes share these tables, while
every walk, draw and comparison runs again in each pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
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
    _read_only,
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

# Tables read from VARIANT_SPECS, theta and the linking bits are built once per process and
# shared read-only. Each cache keyed by a variant, an angle or a linking case holds at most
# CACHE_SIZE keys, so a long theta scan does not grow memory without limit.
CACHE_SIZE = 256

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

# What applying each correction before a plain B(alpha) makes of alpha, in units of pi. On an
# H step X and Z trade (X H = H Z); an Rz does not fold. Danos, Kashefi & Panangaden, J. ACM 2007.
CORRECTIONS = {"X": lambda alpha, theta: -alpha, "Z": lambda alpha, theta: alpha + 1,
               "Rz(theta/2)": lambda alpha, theta: alpha - theta / 2,
               "Rz(-theta/2)": lambda alpha, theta: alpha + theta / 2}
_H_CORRECTIONS = {"X": CORRECTIONS["Z"], "Z": CORRECTIONS["X"]}


@dataclass(frozen=True)
class Step:
    """One measurement of a schedule.

    The basis is ``B(quarters * theta/4)``, pushed through H when
    ``hadamard`` is set. The correction named ``static`` folds into the
    angle when the inherited sx bits of the wires in ``when`` have odd
    parity. With a ``trigger`` vertex the basis adapts: outcome 1 there
    folds the correction named ``conditional`` in after the static one.
    Both name a ``CORRECTIONS`` entry; an Rz does not fold on an H step.
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
        folds = _H_CORRECTIONS if self.hadamard else CORRECTIONS
        for name in (self.static, self.conditional):
            if name is not None and name not in folds:
                kind = "an H" if self.hadamard else "a plain"
                where = f"step on vertex {self.vertex}: correction {name!r}"
                raise ValueError(f"{where} does not fold into {kind} basis")


@dataclass(frozen=True)
class Word:
    """One wire's byproduct word ``X^x Z^z Rz(k*pi/4)``.

    ``x`` and ``z`` list the measured vertices whose outcomes XOR into
    each exponent; ``k`` is constant.
    """

    x: tuple[int, ...] = ()
    z: tuple[int, ...] = ()
    k: int = 0


@dataclass(frozen=True, eq=False)
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
    frame table covers theta = pi alone. A record compares and hashes by
    identity, so it can key the frame-table cache.
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
        flags = zero == 1 if self.nonlocal_vertex is None else bits[self.nonlocal_vertex] == 1
        return _read_only(codes), _read_only(flags)


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


@lru_cache(maxsize=CACHE_SIZE)
def _resource_graph(variant: ResourceVariant) -> WeightedGraph:
    return build_resource(variant)


# --- reference matrices (wire order c1, c2, t; c1 most significant) ---


def _shared_copies(builder):
    """Build ``builder``'s matrix once per argument and keep it read-only in ``.shared``.

    Each call of the result returns a fresh, writable copy of that matrix.
    The cache is typed, so a ``Fraction`` angle (a multiple of pi) never
    shares an entry with an equal float one (radians).
    """

    @lru_cache(maxsize=CACHE_SIZE, typed=True)
    @wraps(builder)
    def shared(*args, **kwargs):
        return _read_only(builder(*args, **kwargs))

    @wraps(builder)
    def fresh(*args, **kwargs):
        return shared(*args, **kwargs).copy()

    fresh.shared = shared
    return fresh


@_shared_copies
def toffoli_matrix() -> np.ndarray:
    mat = np.eye(8, dtype=complex)
    mat[[6, 7]] = mat[[7, 6]]
    return mat


@_shared_copies
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


@_shared_copies
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


@_shared_copies
def logical_target(variant: ResourceVariant) -> np.ndarray:
    """Gate the resource performs on the logical input.

    This is ``target_unitary`` after the H-basis target encoding of
    ``encoded_state``. At theta = pi it is the Toffoli up to float
    rounding: its entries differ from ``toffoli_matrix()`` by about 5e-16.
    """
    return target_unitary.shared(variant.theta) @ hadamard_on_target.shared()


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
    """Measurement order and angles, with their corrections folded in, for one run.

    Each step picks one of its two bases in ``_step_bases`` by the parity
    of its ``when`` bits of sx, so programs for different sx share their
    basis objects, adaptive callables included, where corrections agree.
    The choice is made once per variant and sx (``_program``; sz never
    enters a program), and each call returns a fresh ``Pattern``.
    """
    _check_recoverable(variant, linking)
    return Pattern([PatternStep(vertex, basis) for vertex, basis in _program(variant, linking.sx)])


@lru_cache(maxsize=CACHE_SIZE)
def _program(variant: ResourceVariant, sx: tuple[int, int, int]) -> tuple[tuple[int, BasisLike], ...]:
    """Each schedule step's vertex and basis under the inherited x bits ``sx``."""
    bits = dict(zip(WIRES, sx))
    return tuple(
        (step.vertex, bases[sum(bits[w] for w in step.when) & 1])
        for step, bases in zip(variant.spec.schedule, _step_bases(variant))
    )


@lru_cache(maxsize=CACHE_SIZE)
def _step_bases(variant: ResourceVariant) -> tuple[tuple[BasisLike, BasisLike], ...]:
    """Each schedule step's basis for an even and an odd ``when`` parity.

    Each basis folds the step's corrections into its exact angle through
    ``CORRECTIONS``, the static one first and then the conditional one,
    as applying ``static @ conditional`` before the measurement would. A
    step with a trigger adapts between two bases (``_adaptive``). Equal
    bases of a step are one object, so seven's X.X basis is its bare one.
    """
    table = []
    for step in variant.spec.schedule:
        odd = (step.static,) if step.static else ()
        extra = (step.conditional,) if step.trigger is not None else ()
        made = [_folded(step, variant.theta, names) for names in ((), odd, extra, odd + extra)]
        bare, static, met, both = [made[made.index(basis)] for basis in made]
        if step.trigger is None:
            table.append((bare, static))
        else:
            even = _adaptive(step.trigger, bare, met)
            table.append((even, _adaptive(step.trigger, static, both) if odd else even))
    return tuple(table)


def _folded(step: Step, theta: Fraction, names: tuple[str, ...]) -> MeasurementBasis:
    """``step``'s basis with the corrections ``names`` folded into its angle, first to last."""
    folds = _H_CORRECTIONS if step.hadamard else CORRECTIONS
    alpha = step.quarters * theta / 4
    for name in names:
        alpha = folds[name](alpha, theta)
    return MeasurementBasis(alpha, step.hadamard)


def _adaptive(trigger_vertex: int, untriggered: MeasurementBasis, triggered: MeasurementBasis):
    """Basis that is ``triggered`` on outcome 1 of the trigger vertex, else ``untriggered``.

    Returning prebuilt bases lets the walk resolve their kets once per depth.
    """

    def resolve(outcomes):
        return triggered if outcomes.get(trigger_vertex) else untriggered

    return resolve


# --- predicted byproduct frames ---


@lru_cache(maxsize=CACHE_SIZE)
def _nonlocal_factor(theta: Fraction, flip: int) -> tuple[np.ndarray, str]:
    """Residual of the mid-circuit phase flip, pushed to the end of the run (read-only)."""
    if theta % 2 in (Fraction(1), Fraction(-1)):
        return _read_only(kron_all(ID2, CNOT) @ kron_all(CZ, ID2)), "CNOT(c2,t).CZ(c1,c2)"
    rad = angles.radians(theta) * flip
    tail = (
        _pair_phase(0, 1, angles.radians(theta / 2) * flip)
        @ _pair_phase(0, 2, np.pi)
        @ hadamard_on_target.shared()
    )
    factor = tail @ _pair_phase(1, 2, rad) @ tail.conj().T
    return _read_only(factor), f"conjugated CZ({angles.describe(theta)}) on (c2,t)"


class _FrameTable:
    """What ``LinkingFrames`` reads of one linking case, built once per process.

    ``_frame_table`` keeps one per case, keyed by the variant, the linking
    bits and the variant's spec record, so a record replaced in
    ``VARIANT_SPECS`` gets a table of its own. Every array is read-only;
    ``rows`` and ``tail`` are built on first use.
    """

    def __init__(self, variant: ResourceVariant, linking: LinkingByproducts, spec: VariantSpec):
        _check_recoverable(variant, linking)
        self.spec = spec
        self.kind = variant.kind
        self.theta = theta = variant.theta
        self.h8 = h8 = angles.eighths(theta / 2)  # theta/2 in units of pi/4
        self.flip = -1 if (linking.sx[1] ^ linking.sx[2]) else 1
        entries = spec.prefactors[linking.sx]
        self.unavailable = None
        if spec.pi_only and theta != 1:
            self.unavailable = (
                f"{variant.kind}-qubit frames are tabulated for theta = pi only, "
                f"not theta = {angles.describe(theta)}"
            )
        elif h8 is None and any(k for _, _, k in entries.values()):
            self.unavailable = (
                f"{variant.kind}-qubit linking corrections are tabulated for theta a "
                "multiple of pi/2 only"
            )
        else:
            words = (entries.get(wire, (0, 0, 0)) for wire in WIRES)
            self.prefactor = _read_only(
                np.array([make_word(x, z, k * h8 if k else 0).code for x, z, k in words])
            )
        self.sz = _read_only(np.array([4 * linking.sz[0], 4 * linking.sz[1], 8 * linking.sz[2]]))
        self.nonlocal_rows = spec.branch_words[1]

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's word codes, in ``WIRES`` order, and global phase."""
        branch = self.spec.branch_words[0].copy()
        if self.h8 is not None:  # else the non-local rows are uncovered
            for wire, (x, z, k) in self.spec.nonlocal_words.items():
                word = make_word(x, z, self.flip * k * self.h8)
                branch[self.nonlocal_rows, WIRES.index(wire)] = word.code
        # Python complex products (object arrays), in frame_compose's order:
        # each wire's phase, then the sz frame's unit phase, then each sz wire's.
        products, phases, _ = word_tables()
        codes = products[self.prefactor, branch]
        phase = np.full(len(branch), 1.0 + 0.0j, dtype=object)
        for extra in [*phases[self.prefactor, branch].T, 1.0 + 0.0j]:
            phase = phase * extra
        local_codes, local_phase = products[codes, self.sz], phase
        for extra in phases[codes, self.sz].T:
            local_phase = local_phase * extra
        local = ~self.nonlocal_rows
        local_phase = np.where(local, local_phase, phase).astype(complex)
        return _read_only(np.where(local[:, None], local_codes, codes)), _read_only(local_phase)

    @cached_property
    def tail(self) -> tuple[np.ndarray, str]:
        """The non-local factor with the sz frame folded in, and its label."""
        factor, label = _nonlocal_factor(self.theta, self.flip)
        sz_frame = ByproductOperator(WIRES, {w: WORDS[c] for w, c in zip(WIRES, self.sz)})
        return _read_only(factor @ frame_to_operator(sz_frame)), label


_frame_table = lru_cache(maxsize=CACHE_SIZE)(_FrameTable)


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
    The tables are built once per process and case (``_FrameTable``) and
    shared read-only: ``local_mask`` and ``operators`` return fresh arrays,
    and a non-local frame holds the shared, read-only factor.
    """

    def __init__(self, variant: ResourceVariant, linking: LinkingByproducts = NO_LINKING):
        self._frames = _frame_table(variant, linking, variant.spec)

    def _check(self, rows) -> np.ndarray:
        """Each given row's non-local flag, or what the first uncovered row raises."""
        frames = self._frames
        nonlocal_rows = frames.nonlocal_rows[rows]
        uncovered = nonlocal_rows & (frames.h8 is None)
        if frames.unavailable and nonlocal_rows.size and not uncovered[0]:
            raise FrameUnavailable(frames.unavailable)
        if uncovered.any():
            raise FrameUnavailable(
                f"{frames.kind}-qubit frames with s{frames.spec.nonlocal_vertex + 1} = 1 are "
                "tabulated for theta a multiple of pi/2 only, not theta = "
                f"{angles.describe(frames.theta)}"
            )
        return nonlocal_rows

    def local_mask(self, rows=slice(None)) -> np.ndarray:
        """Whether each row's frame is a tensor product, without building it."""
        return ~self._check(rows)

    def operators(self, rows=slice(None)) -> np.ndarray:
        """``frame_to_operator`` of each row's frame, as one ``(B, 8, 8)`` stack."""
        nonlocal_rows = self._check(rows)
        if not nonlocal_rows.size:
            return np.empty((0, 8, 8), dtype=complex)
        codes, phases = (column[rows] for column in self._frames.rows)
        entries = word_tables()[2]
        out = entries[0][codes[:, 0]] * entries[1][codes[:, 1]] * entries[2][codes[:, 2]]
        out = out.reshape(-1, 8, 8)
        if nonlocal_rows.any():
            out[nonlocal_rows] = out[nonlocal_rows] @ self._frames.tail[0]
        return phases[:, None, None] * out

    def __call__(self, outcomes) -> ByproductOperator:
        row = outcome_row(self._frames.spec.measured_vertices, outcomes)
        [nonlocal_branch] = self._check([row])
        codes, phase = (column[row] for column in self._frames.rows)
        words = {wire: WORDS[code] for wire, code in zip(WIRES, codes)}
        factor, label = self._frames.tail if nonlocal_branch else (None, None)
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
        target_inv = np.linalg.inv(logical_target.shared(variant))
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
