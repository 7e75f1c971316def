"""Weighted graphs, graph-state construction, and a JSON interchange format.

An edge of weight ``theta`` stands for the entangling operation
``CZ(theta) = diag(1, 1, 1, e^{i*theta})`` between its endpoints; the
graph state is built by preparing every vertex in its input state
(``|+>`` by default) and applying one such gate per edge. Vertex ``v``
of the graph lives on qubit ``v`` of the resulting register.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import angles
from .angles import Angle
from .qstate import HADAMARD, KET_PLUS, MAX_QUBITS, StateVector, apply_cz_theta, kron_all

ROLES = ("none", "c1", "c2", "t")


class GraphFormatError(ValueError):
    """Malformed graph document or graph invariant violation."""


@dataclass
class InputAssignment:
    """Marks a vertex as a logical input wire.

    ``hadamard`` requests that the vertex state be pushed through H when
    the graph is built (used to pre-encode a target qubit).
    """

    role: str = "none"
    state: np.ndarray = field(default_factory=lambda: KET_PLUS.copy())
    hadamard: bool = False

    def __post_init__(self):
        if self.role not in ROLES:
            raise GraphFormatError(f"unknown input role {self.role!r}")
        self.state = np.asarray(self.state, dtype=complex)
        if self.state.shape != (2,) or abs(np.vdot(self.state, self.state).real - 1) > 1e-10:
            raise GraphFormatError("input state must be a normalised single-qubit ket")


class WeightedGraph:
    """Vertices plus undirected theta-weighted edges and input assignments."""

    def __init__(self, vertex_count, edges=(), inputs=None):
        if vertex_count < 1:
            raise GraphFormatError("graph needs at least one vertex")
        if vertex_count > MAX_QUBITS:
            raise GraphFormatError(
                f"graph has {vertex_count} vertices; the state-vector limit "
                f"is MAX_QUBITS = {MAX_QUBITS}"
            )
        self.vertex_count = int(vertex_count)
        self.edges: dict[tuple[int, int], Angle] = {}
        for i, j, theta in edges:
            self._add_edge(i, j, theta)
        self.inputs: dict[int, InputAssignment] = {}
        for v, assignment in (inputs or {}).items():
            if not 0 <= v < self.vertex_count:
                raise GraphFormatError(f"input vertex {v} out of range")
            self.inputs[int(v)] = assignment

    def _add_edge(self, i, j, theta):
        if i == j:
            raise GraphFormatError(f"self-loop on vertex {i}")
        if not (0 <= i < self.vertex_count and 0 <= j < self.vertex_count):
            raise GraphFormatError(f"edge ({i}, {j}) references a missing vertex")
        key = (min(i, j), max(i, j))
        if key in self.edges:
            raise GraphFormatError(f"duplicate edge {key}")
        theta = angles.normalized(theta)
        if angles.is_zero(theta):
            raise GraphFormatError(f"edge {key} has weight 0 (equivalent to no edge)")
        self.edges[key] = theta

    def edge_list(self):
        return sorted((i, j, self.edges[(i, j)]) for i, j in self.edges)

    def neighbors(self, v):
        out = []
        for (i, j), theta in self.edges.items():
            if i == v:
                out.append((j, theta))
            elif j == v:
                out.append((i, theta))
        return sorted(out)

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        if self.vertex_count != other.vertex_count or self.edges != other.edges:
            return False
        if self.inputs.keys() != other.inputs.keys():
            return False
        return all(
            self.inputs[v].role == other.inputs[v].role
            and self.inputs[v].hadamard == other.inputs[v].hadamard
            and np.allclose(self.inputs[v].state, other.inputs[v].state)
            for v in self.inputs
        )


def build_state(graph: WeightedGraph) -> StateVector:
    """Graph state: vertex kets entangled by one CZ(theta) per edge."""
    kets = []
    for v in range(graph.vertex_count - 1, -1, -1):
        assignment = graph.inputs.get(v)
        ket = KET_PLUS if assignment is None else assignment.state
        if assignment is not None and assignment.hadamard:
            ket = HADAMARD @ ket
        kets.append(ket)
    state = StateVector(graph.vertex_count, kron_all(*kets))
    return _apply_edges(graph, state)


def build_state_with_input(
    graph: WeightedGraph, input_state: StateVector, vertices
) -> StateVector:
    """Graph state with a joint (possibly entangled) input on given vertices.

    ``vertices[0]`` receives the most significant qubit of ``input_state``;
    every other vertex starts in ``|+>``.
    """
    n = graph.vertex_count
    k = input_state.num_qubits
    if len(vertices) != k or len(set(vertices)) != k:
        raise ValueError("need one distinct vertex per input qubit")
    rest = [v for v in range(n) if v not in vertices]
    tensor = input_state.amplitudes.reshape((2,) * k)
    for _ in rest:
        tensor = np.multiply.outer(tensor, KET_PLUS)
    order = list(vertices) + rest
    tensor = np.moveaxis(tensor, range(n), [n - 1 - v for v in order])
    return _apply_edges(graph, StateVector(n, tensor.reshape(-1)))


def _apply_edges(graph: WeightedGraph, state: StateVector) -> StateVector:
    for i, j, theta in graph.edge_list():
        state = apply_cz_theta(state, i, j, angles.radians(theta))
    return state


def to_json(graph: WeightedGraph) -> bytes:
    doc = {
        "vertices": graph.vertex_count,
        "edges": [[i, j, angles.to_json(theta)] for i, j, theta in graph.edge_list()],
        "inputs": {
            str(v): {
                "role": a.role,
                "basis": "hadamard" if a.hadamard else "computational",
            }
            for v, a in sorted(graph.inputs.items())
        },
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def from_json(text) -> WeightedGraph:
    if isinstance(text, bytes):
        text = text.decode()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise GraphFormatError("top level must be an object")
    vertices = doc.get("vertices")
    if not isinstance(vertices, int) or vertices < 1:
        raise GraphFormatError("'vertices' must be a positive integer")
    edges = []
    for pos, entry in enumerate(doc.get("edges", [])):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise GraphFormatError(f"edges[{pos}]: expected [i, j, angle]")
        i, j, raw = entry
        if not (isinstance(i, int) and isinstance(j, int)):
            raise GraphFormatError(f"edges[{pos}]: endpoints must be integers")
        try:
            theta = angles.from_json(raw, where=f"edges[{pos}].angle")
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from None
        edges.append((i, j, theta))
    inputs = {}
    for key, entry in (doc.get("inputs") or {}).items():
        try:
            v = int(key)
        except ValueError:
            raise GraphFormatError(f"inputs key {key!r} is not a vertex") from None
        if not isinstance(entry, dict):
            raise GraphFormatError(f"inputs[{key}]: expected an object")
        role = entry.get("role", "none")
        basis = entry.get("basis", "computational")
        if basis not in ("computational", "hadamard"):
            raise GraphFormatError(f"inputs[{key}].basis: unknown value {basis!r}")
        inputs[v] = InputAssignment(role=role, hadamard=(basis == "hadamard"))
    try:
        return WeightedGraph(vertices, edges, inputs)
    except GraphFormatError:
        raise
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
