"""Measurement patterns and byproduct-frame algebra.

Measurement bases
-----------------
``MeasurementBasis(alpha)`` measures in ``{(|0> + e^{i*alpha}|1>)/sqrt(2),
(|0> - e^{i*alpha}|1>)/sqrt(2)}``; outcome 0 always refers to the first
(``+``) ket. With ``hadamard=True`` the kets are pushed through H, which
is the variant used by the three-qubit phase-gate gadget. A basis is the
value ``(alpha, hadamard)``: it compares and hashes by value. A
correction applied just before a measurement folds into its angle
instead (``toffoli._step_bases``): X on a plain basis, or Z on an H
basis, negates alpha; Z on a plain basis, or X on an H basis, adds pi;
Rz(beta) on a plain basis subtracts beta. ``basis_states`` computes a
basis object's two kets on first use and keeps them on that object, read
only, so equal bases built apart keep their own kets.

Byproduct frames
----------------
A ``ByproductOperator`` stores, per logical wire, a word in canonical
order ``X^x Z^z Rz(k*pi/4)`` with ``k`` in 0..3, an optional non-local
matrix factor applied before the words, and a global phase. The phase
is a float product of ``np.exp`` values, so it carries their rounding.

A word is a value, one of the sixteen ``WORDS``. ``word_tables`` holds
the product ``_word_mul`` of every pair of words and every word's
Kronecker entries as arrays, for tables of many frames. It and the 2x2
``WireWord.matrix`` are cached and read-only; ``frame_to_operator``
always returns a fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from . import angles
from .angles import Angle
from .qstate import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    StateVector,
    kron_all,
    norms_sq,
    project,
    project_axis,
    rz,
)

OutcomeBits = dict[int, int]

MAX_PATTERN_QUBITS = 16


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """The basis ``B(alpha)``, through H with ``hadamard``; a frozen, hashable value.

    A ``Fraction`` alpha counts multiples of pi and any other number
    radians, so ``B(Fraction(1))`` and ``B(1.0)`` are different values.
    """

    alpha: Angle = Fraction(0)
    hadamard: bool = False

    def __post_init__(self):
        try:  # NaN, +-inf, a Fraction whose radians overflow, or no number at all
            angles._finite(self.alpha, "alpha")
        except (TypeError, ValueError):
            raise ValueError(f"basis alpha must be a finite number, got {self.alpha!r}") from None
        if type(self.hadamard) is not bool:
            raise ValueError(f"basis hadamard must be True or False, got {self.hadamard!r}")

    def _key(self) -> tuple:
        return self.alpha, isinstance(self.alpha, Fraction), self.hadamard

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def _kets(self) -> tuple[np.ndarray, np.ndarray]:
        phase = np.exp(1j * angles.radians(self.alpha))
        plus = np.array([1, phase], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -phase], dtype=complex) / np.sqrt(2)
        if self.hadamard:
            plus, minus = HADAMARD @ plus, HADAMARD @ minus
        return _read_only(plus), _read_only(minus)


COMPUTATIONAL = MeasurementBasis(alpha=Fraction(0), hadamard=True)


def basis_states(basis: MeasurementBasis) -> tuple[np.ndarray, np.ndarray]:
    """Projection kets for outcomes 0 and 1, the same read-only pair at every call."""
    return basis._kets


BasisLike = Union[MeasurementBasis, Callable[[OutcomeBits], MeasurementBasis]]


@dataclass
class PatternStep:
    """One measurement; ``basis`` may be a function of earlier outcomes."""

    vertex: int
    basis: BasisLike


@dataclass
class Pattern:
    steps: list[PatternStep]

    def __post_init__(self):
        seen = set()
        for step in self.steps:
            if step.vertex in seen:
                raise ValueError(f"vertex {step.vertex} measured twice")
            seen.add(step.vertex)

    @property
    def vertices(self) -> list[int]:
        return [step.vertex for step in self.steps]


def run_branch(
    state: StateVector, pattern: Pattern, outcomes: OutcomeBits
) -> tuple[float, StateVector]:
    """Project out every measured qubit for one fixed outcome assignment.

    Returns the branch probability (final over initial squared norm) and
    the remaining state, unnormalised. Unmeasured vertices keep their
    relative order: the vertex with the smallest label becomes qubit 0.
    """
    outcome_row(pattern.vertices, outcomes)
    initial = state.norm_sq
    if initial == 0:
        raise ValueError("cannot measure the zero state")
    position = {v: v for v in range(state.num_qubits)}
    seen: OutcomeBits = {}
    for step in pattern.steps:
        if step.vertex not in position:
            raise ValueError(f"vertex {step.vertex} not present in the register")
        basis = step.basis(seen) if callable(step.basis) else step.basis
        kets = basis_states(basis)
        bit = outcomes[step.vertex]
        q = position.pop(step.vertex)
        state = project(state, q, kets[bit])
        for v in position:
            if position[v] > q:
                position[v] -= 1
        seen[step.vertex] = bit
    return state.norm_sq / initial, state


def measured_qubits(num_qubits: int, pattern: Pattern) -> tuple[list[int], list[int]]:
    """Register qubit of each measured vertex when its turn comes, and the survivors.

    Unmeasured vertices keep ascending label order, as in ``run_branch``,
    so the positions do not depend on the outcomes.
    """
    position = list(range(num_qubits))
    qubits = []
    for vertex in pattern.vertices:
        if vertex not in position:
            raise ValueError(f"vertex {vertex} not present in the register")
        qubits.append(position.index(vertex))
        position.remove(vertex)
    return qubits, position


def outcome_tree_leaves(pattern: Pattern | Sequence[Pattern], tensor: np.ndarray) -> np.ndarray:
    """Walk the outcome tree of ``pattern`` one level at a time.

    ``tensor`` is a batch of n-qubit registers, ``(B,) + (2,)*n`` with
    B >= 1; qubit q of an r-qubit register sits on axis ``1 + (r - 1 - q)``.
    ``pattern`` may be a sequence of patterns over the same vertices in
    the same order, one per equal block of rows. The ``2**d`` nodes at
    depth d are one ``(2**d, B) + (2,)*(n-d)`` array. ``_block_groups``
    groups the (node, block) pairs of each depth by the identity of their
    basis, and each group costs one ``basis_states`` and one
    ``qstate.project_axis`` call. A depth with one group projects the whole
    level, so m fixed steps make m kernel calls; a split depth gathers each
    group's rows by fancy indexing on a (block, row) view and scatters them
    into the next level. The projection is elementwise, so every leaf row is
    bitwise equal to ``run_branch`` on that register under its block's
    pattern. The result is the last level, ``(2**m, B) + (2,)*(n-m)``: leaf
    i holds the outcomes ``outcome_prefixes(pattern.vertices)[i]``, and the
    survivors sit in ``measured_qubits`` order.
    """
    patterns = [pattern] if isinstance(pattern, Pattern) else list(pattern)
    shape, n, blocks = tensor.shape, tensor.ndim - 1, len(patterns)
    if n < 0 or shape[0] < 1 or shape[1:] != (2,) * n:
        raise ValueError(f"tensor must be a batch (B,) + (2,)*n of qubit registers, got {shape}")
    if not blocks or shape[0] % blocks:
        raise ValueError(f"{shape[0]} rows do not split into {blocks} equal blocks")
    vertices = patterns[0].vertices
    if blocks > 1 and any(p.vertices != vertices for p in patterns):
        raise ValueError("block patterns must measure the same vertices in the same order")
    qubits, _ = measured_qubits(n, patterns[0])
    level = tensor[np.newaxis]
    for depth in range(len(vertices)):
        axis = 1 + n - depth - qubits[depth]
        bases = [p.steps[depth].basis for p in patterns]
        groups = _block_groups(bases, vertices[:depth], len(level))
        child_shape = level.shape[1:axis] + level.shape[axis + 1 :]
        children = np.empty((len(level), 2) + child_shape, dtype=complex)
        if len(groups) == 1:
            children[:, 0], children[:, 1] = project_axis(level, axis, basis_states(groups[0][0]))
        else:  # split the row axis into (block, row)
            source = level.reshape(level.shape[:1] + (blocks, -1) + level.shape[2:])
            target = children.reshape(children.shape[:2] + (blocks, -1) + child_shape[1:])
            for basis, node, block in groups:
                target[node, 0, block], target[node, 1, block] = project_axis(
                    source[node, block], axis, basis_states(basis)
                )
        level = children.reshape((-1,) + child_shape)
    return level


def _block_groups(bases, prefix_vertices, count: int) -> list:
    """Each distinct basis the blocks' ``bases`` give at a depth of ``count`` nodes.

    A group is ``(basis, nodes, blocks)``, the index arrays of its (node,
    block) pairs, or ``(basis, None, None)`` for one fixed basis of every
    block. An adaptive basis is called once per node with the outcomes
    above it, once however many blocks share it.
    """
    first = bases[0]
    if not callable(first) and all(basis is first for basis in bases):
        return [(first, None, None)]
    prefixes, resolved, groups = outcome_prefixes(prefix_vertices), {}, {}
    for block, basis in enumerate(bases):
        if id(basis) not in resolved:
            chosen = [basis(seen) for seen in prefixes] if callable(basis) else [basis] * count
            # Each entry holds its basis, so no id is reused while grouping.
            split = {}
            for node, each in enumerate(chosen):
                split.setdefault(id(each), (each, []))[1].append(node)
            resolved[id(basis)] = split.values()
        for each, found in resolved[id(basis)]:
            _, group_nodes, group_blocks = groups.setdefault(id(each), (each, [], []))
            group_nodes += found
            group_blocks += [block] * len(found)
    return [(each, np.array(nodes), np.array(blocks)) for each, nodes, blocks in groups.values()]


def outcome_prefixes(vertices) -> list[OutcomeBits]:
    """Outcome dicts over ``vertices`` in ``itertools.product`` order.

    This is the one outcome order: dict i spells i in binary, its first
    vertex on the most significant bit. Every call returns new dicts.
    """
    prefixes = [{}]
    for vertex in vertices:  # each dict is new, so it serves as its own 0 child
        level = []
        for zero in prefixes:
            one = zero.copy()
            zero[vertex], one[vertex] = 0, 1
            level += (zero, one)
        prefixes = level
    return prefixes


def outcome_row(vertices, outcomes: OutcomeBits) -> int:
    """The index of ``outcomes`` in ``outcome_prefixes(vertices)``.

    The one check of an outcome dict: it must cover exactly ``vertices``,
    and the ``ValueError`` for a bit other than 0 or 1 names the first
    such vertex.
    """
    if outcomes.keys() != set(vertices):
        raise ValueError(f"outcomes must cover exactly vertices {list(vertices)}")
    row = 0
    for vertex in vertices:
        if outcomes[vertex] not in (0, 1):
            raise ValueError(f"outcome for vertex {vertex} must be 0 or 1")
        row = 2 * row + int(outcomes[vertex])
    return row


def enumerate_branches(
    state: StateVector, pattern: Pattern
) -> list[tuple[OutcomeBits, float, StateVector]]:
    """All ``2**m`` measurement branches, zero-probability ones included.

    Branches come in ``itertools.product`` order over the steps. This is
    ``outcome_tree_leaves`` on a batch of one: m kernel calls when every
    basis is fixed, one per distinct basis at an adaptive depth, and each
    branch's amplitudes are a view into the walk's last level. One
    ``qstate.norms_sq`` call takes every branch's squared norm, bitwise
    equal to its ``StateVector.norm_sq``, so each result is bitwise equal
    to ``run_branch(state, pattern, outcomes)``.
    Without steps the one branch is ``state`` itself.
    """
    m = len(pattern.steps)
    if m > MAX_PATTERN_QUBITS:
        raise ValueError(f"{m} measurements exceed the limit of {MAX_PATTERN_QUBITS}")
    initial = state.norm_sq
    if initial == 0:
        raise ValueError("cannot measure the zero state")
    if m == 0:
        return [({}, 1.0, state)]
    n = state.num_qubits
    leaves = outcome_tree_leaves(pattern, state.amplitudes.reshape((1,) + (2,) * n))
    rows = leaves.reshape(2**m, -1)
    probabilities = norms_sq(rows) / initial
    branches = zip(outcome_prefixes(pattern.vertices), probabilities, rows)
    return [(outcomes, float(p), StateVector(n - m, row)) for outcomes, p, row in branches]


# --- byproduct frames ---


class WireWord(NamedTuple):
    """Single-wire word X^x Z^z Rz(k*pi/4), canonicalised to k in 0..3."""

    x: int = 0
    z: int = 0
    k: int = 0

    def matrix(self) -> np.ndarray:
        """The 2x2 matrix, shared between calls and read-only."""
        return _word_matrix(self)

    @property
    def code(self) -> int:
        """The word's index ``8x + 4z + k`` in ``WORDS``."""
        return 8 * self.x + 4 * self.z + self.k

    def label(self) -> str:
        parts = []
        if self.x:
            parts.append("X")
        if self.z:
            parts.append("Z")
        if self.k:
            parts.append(f"Rz({self.k}pi/4)")
        return ".".join(parts) or "I"


WORDS = tuple(WireWord(code >> 3, code >> 2 & 1, code & 3) for code in range(16))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=256)
def _word_matrix(word: WireWord) -> np.ndarray:
    out = rz(word.k * np.pi / 4)
    if word.z:
        out = PAULI_Z @ out
    if word.x:
        out = PAULI_X @ out
    return _read_only(out)


def make_word(x: int = 0, z: int = 0, k: int = 0) -> WireWord:
    """Build a word, folding Rz(pi) into Z so that k lands in 0..3."""
    return WORDS[8 * (x & 1) + 4 * ((z ^ (k % 8 >= 4)) & 1) + k % 4]


def _word_mul(a: WireWord, b: WireWord) -> tuple[WireWord, complex]:
    """Product a*b in canonical form plus the scalar it picks up."""
    phase = 1.0 + 0.0j
    k_left = a.k
    if b.x:
        if a.z:
            phase = -phase
        if a.k:
            phase *= np.exp(1j * np.pi / 4 * a.k)
            k_left = -a.k
    return make_word(a.x ^ b.x, a.z ^ b.z, k_left + b.k), phase


@lru_cache(maxsize=None)
def word_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_word_mul`` of every pair of codes as ``(16, 16)`` codes and Python complex
    phases (an object array, whose products round as ``frame_compose``'s do), and
    ``(3, 16, 64)`` entries: word c as factor w of a flattened three-word ``kron_all``."""
    products = [_word_mul(a, b) for a in WORDS for b in WORDS]
    codes = np.array([word.code for word, _ in products]).reshape(16, 16)
    phases = np.array([complex(phase) for _, phase in products], dtype=object).reshape(16, 16)
    row, col = np.divmod(np.arange(64), 8)
    matrices = np.stack([_word_matrix(word) for word in WORDS])
    entries = np.stack([matrices[:, row >> s & 1, col >> s & 1] for s in (2, 1, 0)])
    return _read_only(codes), _read_only(phases), _read_only(entries)


@dataclass(eq=False)
class ByproductOperator:
    """Per-wire correction words with an optional non-local factor.

    The full operator is ``global_phase * (word_0 x word_1 x ...) @
    nonlocal_factor`` with ``wires[0]`` on the most significant qubit.
    Two frames are equal when their wires, words, label, phase and
    factor (compared by value) are.
    """

    wires: tuple[str, ...]
    words: dict[str, WireWord] = field(default_factory=dict)
    nonlocal_factor: np.ndarray | None = None
    nonlocal_label: str | None = None
    global_phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        for wire in self.wires:
            self.words.setdefault(wire, WireWord())
        if set(self.words) != set(self.wires):
            raise ValueError("frame words must match the declared wires")

    def __eq__(self, other):
        if not isinstance(other, ByproductOperator):
            return NotImplemented
        if (self.nonlocal_factor is None) != (other.nonlocal_factor is None):
            return False
        return (
            self.wires == other.wires
            and self.words == other.words
            and self.nonlocal_label == other.nonlocal_label
            and self.global_phase == other.global_phase
            and (self.is_local or np.array_equal(self.nonlocal_factor, other.nonlocal_factor))
        )

    @property
    def is_local(self) -> bool:
        return self.nonlocal_factor is None

    def describe(self) -> str:
        parts = [f"{w}:{self.words[w].label()}" for w in self.wires]
        if self.nonlocal_factor is not None:
            parts.append(f"nonlocal[{self.nonlocal_label or '8x8 factor'}]")
        return " ".join(parts)


def frame_to_operator(frame: ByproductOperator) -> np.ndarray:
    """Dense matrix of the frame on ``len(wires)`` qubits."""
    out = kron_all(*(frame.words[w].matrix() for w in frame.wires))
    if frame.nonlocal_factor is not None:
        out = out @ frame.nonlocal_factor
    return frame.global_phase * out


def frame_compose(a: ByproductOperator, b: ByproductOperator) -> ByproductOperator:
    """Operator product ``a @ b`` as a frame; phases multiply as floats."""
    if a.wires != b.wires:
        raise ValueError(f"wire mismatch: {a.wires} vs {b.wires}")
    phase = a.global_phase * b.global_phase
    if a.nonlocal_factor is None:
        words = {}
        for wire in a.wires:
            words[wire], extra = _word_mul(a.words[wire], b.words[wire])
            phase *= extra
        return ByproductOperator(
            a.wires,
            words,
            None if b.nonlocal_factor is None else b.nonlocal_factor.copy(),
            b.nonlocal_label,
            phase,
        )
    # Fold everything to the right of a's words into the matrix factor.
    unit_b = ByproductOperator(a.wires, b.words, b.nonlocal_factor, b.nonlocal_label)
    tail = a.nonlocal_factor @ frame_to_operator(unit_b)
    return ByproductOperator(a.wires, dict(a.words), tail, a.nonlocal_label, phase)
