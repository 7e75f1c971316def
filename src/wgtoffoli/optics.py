"""Postselected linear-optics generation of the six-qubit gate resource.

Photons carry polarisation qubits (|H> = |0>, |V> = |1>). The ``fuse``
operation is the two-photon projector |HH><HH| + |VV><VV| followed by H
on a designated photon; both photons stay in the register. A fuse and a
measurement share one postselection step, ``_postselect``, which folds
the projection's norm ratio into ``cumulative_prob``. Pair sources emit
``gamma_+|HH> + gamma_-|VV>`` with ``gamma_pm = (1 pm e^{-i*gamma/2})/2``
and are rotated into a two-vertex graph pair of edge weight gamma by
``Rz(gamma/2) H`` on each photon.

The built-in recipe assembles the six-qubit resource from two gamma=pi/2
pairs and one maximal pair plus two recycled photons. Each fuse names the
photon that receives the H; these assignments, and the waveplate settings
of the mid-recipe measurement, are fixed by the intermediate states the
construction is required to reproduce (see the tests).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import angles
from .angles import Angle
from .mbqc import COMPUTATIONAL, MAX_PATTERN_QUBITS, MeasurementBasis, basis_states
from .qstate import (
    HADAMARD,
    KET_PLUS,
    MAX_QUBITS,
    StateVector,
    apply_operator,
    kron_all,
    project,
    reorder_qubits,
    rz,
)


class RecipeError(ValueError):
    """Ill-formed recipe: a bad field, or a step on a mode it cannot use.

    ``wgtoffoli optics run`` exits 1 on these and 3 on the subclass
    ``PostselectionError``.
    """


class PostselectionError(RecipeError):
    """A fuse or measurement step whose postselection has zero support."""


@dataclass
class PhotonRegister:
    """Live photon modes; ``labels[i]`` is the mode on qubit ``i``."""

    labels: list[int] = field(default_factory=list)
    state: StateVector = field(
        default_factory=lambda: StateVector(0, np.ones(1, dtype=complex))
    )
    cumulative_prob: float = 1.0

    def qubit_of(self, mode: int) -> int:
        try:
            return self.labels.index(mode)
        except ValueError:
            raise RecipeError(f"mode {mode} is not in the register") from None


@dataclass(frozen=True, eq=False)
class RecipeStep:
    """One recipe step; ``RecipeError`` if its op cannot run it. Ignored fields are allowed.
    Every step rule lives here, for JSON steps too (``steps_from_json`` prefixes the step's
    index); a message names a one-mode op's field ``mode``, as the document spells it.
    A step is a hashable value; as in ``MeasurementBasis``, a ``Fraction`` gamma or angle
    counts multiples of pi and any other number radians, so the two never compare equal."""

    op: str  # source | fuse | rotate | measure | reset
    modes: tuple[int, ...] = ()
    gamma: Angle | None = None
    h_on: int | None = None
    angle: Angle | None = None
    basis: MeasurementBasis | None = None
    outcome: int = 0

    def __post_init__(self):
        keys = _op_keys(self.op)  # the fields the op runs with
        two = "modes" in keys
        if not isinstance(self.modes, (list, tuple)):
            raise RecipeError(f"modes must be a list or tuple, got {self.modes!r}")
        object.__setattr__(self, "modes", tuple(self.modes))  # hashable, equal to its JSON read
        if len(self.modes) != 1 + two:
            raise RecipeError(f"{self.op} needs {'two modes' if two else 'one mode'}")
        # Plain ints, as the JSON reader yields (no bool, no float), so that
        # steps_to_json reads back. A type test rather than an is_json_int
        # call per field: every step built runs this, 64 per benchmark pass.
        for k, mode in enumerate(self.modes):
            if type(mode) is not int:
                name = f"modes[{k}]" if two else "mode"  # as the document spells it
                raise RecipeError(f"{name} must be an integer, got {mode!r}")
        if self.h_on is not None and type(self.h_on) is not int:
            raise RecipeError(f"h_on must be an integer, got {self.h_on!r}")
        for name in ("gamma", "h_on", "angle"):  # the fields without a default
            if name in keys and getattr(self, name) is None:
                raise RecipeError(f"{self.op} needs {name}")
        for name in ("gamma", "angle"):
            if name in keys:
                value = getattr(self, name)
                try:
                    angles._finite(value, name)
                except (TypeError, ValueError):
                    raise RecipeError(f"{name} must be a finite number, got {value!r}") from None
        if not angles.is_json_int(self.outcome) or self.outcome not in (0, 1):
            raise RecipeError(f"outcome must be 0 or 1, got {self.outcome!r}")
        if self.basis is not None and not isinstance(self.basis, MeasurementBasis):
            raise RecipeError(f"basis must be a MeasurementBasis, got {self.basis!r}")

    def _key(self) -> tuple:
        pi_units = tuple(isinstance(value, Fraction) for value in (self.gamma, self.angle))
        fields = self.op, self.modes, self.gamma, self.h_on, self.angle, self.basis, self.outcome
        return fields + pi_units

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def pdc_pair(gamma: Angle) -> StateVector:
    """Two-photon source state gamma_+|HH> + gamma_-|VV> (normalised)."""
    half = np.exp(-1j * angles.radians(gamma) / 2)
    amps = np.zeros(4, dtype=complex)
    amps[0] = (1 + half) / 2
    amps[3] = (1 - half) / 2
    return StateVector(2, amps)


def to_weighted_pair(pair: StateVector, gamma: Angle) -> StateVector:
    """Rotate a source pair into the two-vertex graph with edge weight gamma."""
    turn = rz(angles.radians(gamma) / 2) @ HADAMARD
    return apply_operator(apply_operator(pair, (0,), turn), (1,), turn)


def _append_modes(register: PhotonRegister, labels, state: StateVector) -> PhotonRegister:
    if len(set(labels)) != len(labels):
        raise RecipeError(f"modes {tuple(labels)} are not distinct")
    for mode in labels:
        if mode in register.labels:
            raise RecipeError(f"mode {mode} already exists")
    if len(register.labels) + len(labels) > MAX_QUBITS:
        raise RecipeError(
            f"adding modes {tuple(labels)} would exceed MAX_QUBITS = {MAX_QUBITS} live modes"
        )
    joint = kron_all(state.amplitudes, register.state.amplitudes)
    return PhotonRegister(
        register.labels + list(labels),
        StateVector(register.state.num_qubits + state.num_qubits, joint),
        register.cumulative_prob,
    )


def _postselect(register: PhotonRegister, projected: StateVector, failure: str):
    """``projected`` renormalised and ``cumulative_prob`` times its norm ratio to ``register``."""
    ratio = projected.norm_sq / register.state.norm_sq
    if ratio < 1e-15:
        raise PostselectionError(failure)
    return projected.normalized(), register.cumulative_prob * ratio


def fuse(register: PhotonRegister, a: int, b: int, h_on: int) -> PhotonRegister:
    """Project modes (a, b) onto equal polarisation, then H on ``h_on``."""
    if a == b:
        raise RecipeError("fuse needs two distinct modes")
    if h_on not in (a, b):
        raise RecipeError(f"h_on={h_on} must be one of the fused modes {a, b}")
    qa, qb = register.qubit_of(a), register.qubit_of(b)
    idx = np.arange(register.state.amplitudes.size)
    keep = (((idx >> qa) ^ (idx >> qb)) & 1) == 0
    projected = StateVector(register.state.num_qubits, np.where(keep, register.state.amplitudes, 0))
    failure = f"fusing modes {a} and {b} has zero success probability"
    state, prob = _postselect(register, projected, failure)
    out = apply_operator(state, (qa if h_on == a else qb,), HADAMARD)
    return PhotonRegister(list(register.labels), out, prob)


def _measure_out(register: PhotonRegister, mode: int, basis, outcome: int) -> PhotonRegister:
    projected = project(register.state, register.qubit_of(mode), basis_states(basis)[outcome])
    failure = f"measuring mode {mode} with outcome {outcome} cannot occur"
    labels = [m for m in register.labels if m != mode]
    return PhotonRegister(labels, *_postselect(register, projected, failure))


def apply_step(
    register: PhotonRegister, step: RecipeStep, outcome: int | None = None
) -> PhotonRegister:
    """Apply one recipe step to ``register``; return the new register.

    ``outcome``, when given, replaces a measure step's own outcome. The
    input register is never written: every step returns a new register
    with new amplitudes, so a sweep may branch from any register.
    """
    if step.op == "source":
        pair = to_weighted_pair(pdc_pair(step.gamma), step.gamma)
        return _append_modes(register, step.modes, pair)
    if step.op == "reset":
        (mode,) = step.modes
        return _append_modes(register, [mode], StateVector(1, KET_PLUS.copy()))
    if step.op == "fuse":
        a, b = step.modes
        return fuse(register, a, b, step.h_on)
    if step.op == "rotate":
        (mode,) = step.modes
        turn = rz(angles.radians(step.angle))
        return PhotonRegister(
            list(register.labels),
            apply_operator(register.state, (register.qubit_of(mode),), turn),
            register.cumulative_prob,
        )
    (mode,) = step.modes  # a measure step
    outcome = step.outcome if outcome is None else outcome
    return _measure_out(register, mode, step.basis or COMPUTATIONAL, outcome)


def run_recipe(steps) -> PhotonRegister:
    """Apply the steps in order, each measurement with its own outcome."""
    register = PhotonRegister()
    for step in steps:
        register = apply_step(register, step)
    return register


def sweep_measure_outcomes(steps) -> list[tuple[dict[int, int], float]]:
    """Cumulative probability of every measurement-outcome branch.

    Branches come in ``np.ndindex`` product order over the measure steps,
    each as ``({step index: outcome}, probability)``. The outcome tree is
    walked depth first, bit 0 before bit 1: the steps before the first
    measurement run once, the steps up to the next one once per outcome
    of the first, and so on, so every step runs at most once per node of
    the tree. A postselection failure at a node gives 0.0 to every branch
    below it; a malformed recipe raises its ``RecipeError``, the one the
    first such branch in order would raise on its own. More than
    ``MAX_PATTERN_QUBITS`` measure steps are rejected before any step runs.
    """
    measure_steps = [i for i, s in enumerate(steps) if s.op == "measure"]
    if len(measure_steps) > MAX_PATTERN_QUBITS:
        raise RecipeError(
            f"{len(measure_steps)} measure steps exceed the sweep limit of "
            f"{MAX_PATTERN_QUBITS} ({1 << len(measure_steps)} branches)"
        )
    # Node ``depth`` runs measure step depth - 1 (none at the root) and the
    # steps after it, up to the next measure step.
    starts = [0] + measure_steps
    ends = measure_steps + [len(steps)]
    results = []

    def walk(register: PhotonRegister, depth: int, outcomes: dict[int, int]) -> None:
        try:
            for index in range(starts[depth], ends[depth]):
                register = apply_step(register, steps[index], outcomes.get(index))
        except PostselectionError:
            rest = measure_steps[depth:]
            for bits in itertools.product((0, 1), repeat=len(rest)):
                results.append(({**outcomes, **dict(zip(rest, bits))}, 0.0))
            return
        if depth == len(measure_steps):
            results.append((outcomes, register.cumulative_prob))
            return
        for bit in (0, 1):
            walk(register, depth + 1, {**outcomes, measure_steps[depth]: bit})

    walk(PhotonRegister(), 0, {})
    return results


def sorted_state(register: PhotonRegister) -> StateVector:
    """Register state with qubits reordered to ascending mode label."""
    order = sorted(range(len(register.labels)), key=lambda i: register.labels[i])
    return reorder_qubits(register.state, order)


def six_qubit_recipe() -> list[RecipeStep]:
    """Built-in recipe producing the six-qubit resource graph state.

    Mode m of the register ends up as vertex m of the graph (1-based
    labels). Waveplate settings and H assignments are pinned by the
    intermediate-state fixtures.
    """
    half = Fraction(1, 2)
    eighth = Fraction(-1, 4)
    tilted = MeasurementBasis(alpha=Fraction(-1, 4), hadamard=True)
    return [
        RecipeStep("source", (2, 1), gamma=half),
        RecipeStep("source", (6, 7), gamma=half),
        RecipeStep("fuse", (1, 6), h_on=6),
        RecipeStep("reset", (4,)),
        RecipeStep("fuse", (6, 4), h_on=4),
        RecipeStep("measure", (6,), basis=tilted, outcome=0),
        RecipeStep("rotate", (1,), angle=eighth),
        RecipeStep("rotate", (4,), angle=eighth),
        RecipeStep("reset", (6,)),
        RecipeStep("fuse", (6, 2), h_on=6),
        RecipeStep("source", (3, 5), gamma=Fraction(1)),
        RecipeStep("fuse", (4, 3), h_on=3),
        RecipeStep("fuse", (3, 6), h_on=6),
        RecipeStep("fuse", (6, 7), h_on=7),
        RecipeStep("fuse", (5, 7), h_on=7),
        RecipeStep("measure", (7,), basis=COMPUTATIONAL, outcome=0),
    ]


# --- JSON recipe files ---

# The keys of the document, of each op's step and of a basis. Each op takes
# exactly the fields it uses, as steps_to_json writes, steps_from_json reads and RecipeStep checks.
RECIPE_KEYS = frozenset(("steps",))
STEP_KEYS = {
    op: frozenset(("op",) + fields)
    for op, fields in (
        ("source", ("modes", "gamma")),
        ("fuse", ("modes", "h_on")),
        ("rotate", ("mode", "angle")),
        ("reset", ("mode",)),
        ("measure", ("mode", "basis", "outcome")),
    )
}
BASIS_KEYS = frozenset(("alpha", "hadamard"))


def _angle_to_json(angle: Angle | None):
    return None if angle is None else angles.to_json(angle)


def steps_to_json(steps) -> bytes:
    """The recipe document: each step with the fields of ``STEP_KEYS[op]`` it has."""
    out = []
    for step in steps:
        basis = step.basis or COMPUTATIONAL
        fields = {
            "op": step.op,
            "modes": list(step.modes),
            "mode": step.modes[0] if step.modes else None,
            "gamma": _angle_to_json(step.gamma),
            "h_on": step.h_on,
            "angle": _angle_to_json(step.angle),
            # Only an alpha of exactly 0 reads back as "computational"; 2pi would not.
            "basis": "computational"
            if basis.hadamard and basis.alpha == 0
            else {"alpha": angles.to_json(basis.alpha), "hadamard": basis.hadamard},
            "outcome": step.outcome,
        }
        out.append({key: fields[key] for key in STEP_KEYS[step.op] if fields[key] is not None})
    return (json.dumps({"steps": out}, indent=2, sort_keys=True) + "\n").encode()


def _op_keys(op) -> frozenset:
    """``STEP_KEYS[op]``, or ``RecipeError`` for anything that is not one of its ops."""
    keys = STEP_KEYS.get(op) if isinstance(op, str) else None
    if keys is None:
        raise RecipeError(f"unknown op {op!r}")
    return keys


def steps_from_json(text) -> list[RecipeStep]:
    """The steps of a recipe document (text or UTF-8 bytes); a fault is a ``RecipeError``."""
    return angles.read_json(text, RecipeError, _steps_from_doc)


def _steps_from_doc(doc) -> list[RecipeStep]:
    if not isinstance(doc, dict):
        raise ValueError("top level must be an object")
    angles.known_keys(doc, RECIPE_KEYS, "top level")
    raw_steps = doc.get("steps", [])
    if not isinstance(raw_steps, list):
        raise ValueError("'steps' must be a list")
    steps = []
    for pos, entry in enumerate(raw_steps):
        where = f"steps[{pos}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected an object")
        try:
            angles.known_keys(entry, _op_keys(entry.get("op")), where)
            modes = [entry["mode"]] if "mode" in entry else entry.get("modes", [])
            if not isinstance(modes, list):
                raise ValueError(f"{where}.modes: expected a list")
            angle_keys = [key for key in ("gamma", "angle") if key in entry]
            fields = {key: angles.from_json(entry[key], f"{where}.{key}") for key in angle_keys}
            if "basis" in entry:
                fields["basis"] = _basis_from_doc(entry["basis"], f"{where}.basis")
            h_on, outcome = entry.get("h_on"), entry.get("outcome", 0)
            steps.append(RecipeStep(entry["op"], tuple(modes), h_on=h_on, outcome=outcome, **fields))
        except RecipeError as exc:  # a step rule, in RecipeStep's words
            raise RecipeError(f"{where}: {exc}") from None
    return steps


def _basis_from_doc(raw, where: str) -> MeasurementBasis:
    if raw == "computational":
        return COMPUTATIONAL
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: expected \"computational\" or an object")
    angles.known_keys(raw, BASIS_KEYS, where)
    hadamard = raw.get("hadamard", False)
    if not isinstance(hadamard, bool):
        raise ValueError(f"{where}.hadamard: expected true or false")
    return MeasurementBasis(
        alpha=angles.from_json(raw.get("alpha", 0), f"{where}.alpha"), hadamard=hadamard
    )
