"""Weighted graphs, graph-state construction, and a JSON interchange format.

An edge of weight ``theta`` stands for the entangling operation
``CZ(theta) = diag(1, 1, 1, e^{i*theta})`` between its endpoints; the
graph state is built by preparing every vertex in its input state
(``|+>`` by default) and applying one such gate per edge. Vertex ``v``
of the graph lives on qubit ``v`` of the resulting register.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import angles
from .angles import Angle
from .qstate import (
    HADAMARD,
    KET_PLUS,
    MAX_QUBITS,
    StateVector,
    _phase_both_set,
    kron_all,
)

ROLES = ("none", "c1", "c2", "t")


class GraphFormatError(ValueError):
    """Malformed graph document or graph invariant violation."""


@dataclass
class InputAssignment:
    """Marks a vertex as a logical input wire.

    The vertex starts in ``|+>``; ``hadamard`` requests that it be pushed
    through H when the graph is built (used to pre-encode a target qubit).
    """

    role: str = "none"
    hadamard: bool = False

    def __post_init__(self):
        if self.role not in ROLES:
            raise GraphFormatError(f"unknown input role {self.role!r}")


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
            for v in self.inputs
        )


def build_state(graph: WeightedGraph) -> StateVector:
    """Graph state: vertex kets entangled by one CZ(theta) per edge.

    This is ``embed_input_rows`` with every vertex an input, in ``|+>`` or,
    on a ``hadamard`` input, ``H|+>``.
    """
    vertices = range(graph.vertex_count - 1, -1, -1)
    kets = []
    for v in vertices:
        assignment = graph.inputs.get(v)
        kets.append(HADAMARD @ KET_PLUS if assignment and assignment.hadamard else KET_PLUS)
    rows = embed_input_rows(graph, kron_all(*kets)[None, :], vertices)
    return StateVector(graph.vertex_count, rows[0])


def build_state_with_input(
    graph: WeightedGraph, input_state: StateVector, vertices
) -> StateVector:
    """Graph state with a joint (possibly entangled) input on given vertices.

    ``vertices[0]`` receives the most significant qubit of ``input_state``;
    every other vertex starts in ``|+>``. This is ``embed_input_rows`` on
    a batch of one.
    """
    rows = embed_input_rows(graph, input_state.amplitudes[None, :], vertices)
    return StateVector(graph.vertex_count, rows[0])


def embed_input_rows(graph: WeightedGraph, rows: np.ndarray, vertices) -> np.ndarray:
    """``build_state_with_input`` of each ``(B, 2**k)`` input row, as ``(B, 2**n)``.

    The batch is built as one ``(B, 2, ..., 2)`` tensor: the ``|+>`` outer
    products, one transpose and one strided multiply per edge. Every
    operation acts on each row alone, so a row gets the bits a batch of
    one would give it.
    """
    n = graph.vertex_count
    k = len(vertices)
    for v in vertices:
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise ValueError(f"input vertex {v!r} is not an integer")
        if not 0 <= v < n:
            raise ValueError(f"input vertex {v} out of range for {n} vertices")
    if len(set(vertices)) != k:
        raise ValueError(f"input vertices {tuple(vertices)} are not distinct")
    if rows.ndim != 2 or rows.shape[1] != 1 << k:
        raise ValueError(
            f"input rows of shape {rows.shape} do not fit {k} vertices: need width {1 << k}"
        )
    rest = [v for v in range(n) if v not in vertices]
    tensor = rows.reshape((len(rows),) + (2,) * k)
    for _ in rest:
        tensor = np.multiply.outer(tensor, KET_PLUS)
    order = list(vertices) + rest
    # A C-ordered copy: the phases below never write into ``rows``.
    tensor = np.moveaxis(tensor, range(1, n + 1), [n - v for v in order]).copy()
    for i, j, theta in graph.edge_list():
        _phase_both_set(tensor, i, j, np.exp(1j * angles.radians(theta)))
    return tensor.reshape(len(rows), -1)


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


GRAPH_KEYS = frozenset(("vertices", "edges", "inputs"))
INPUT_KEYS = frozenset(("role", "basis"))


def from_json(text) -> WeightedGraph:
    """The graph in a JSON document (text or UTF-8 bytes); a fault is a ``GraphFormatError``."""
    return angles.read_json(text, GraphFormatError, _graph_from_doc)


def _graph_from_doc(doc) -> WeightedGraph:
    if not isinstance(doc, dict):
        raise ValueError("top level must be an object")
    angles.known_keys(doc, GRAPH_KEYS, "top level")
    vertices = doc.get("vertices")
    if not angles.is_json_int(vertices) or vertices < 1:
        raise ValueError("'vertices' must be a positive integer")
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ValueError("'edges' must be a list")
    raw_inputs = doc.get("inputs", {})
    if not isinstance(raw_inputs, dict):
        raise ValueError("'inputs' must be an object")
    edges = []
    for pos, entry in enumerate(raw_edges):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"edges[{pos}]: expected [i, j, angle]")
        i, j, raw = entry
        if not (angles.is_json_int(i) and angles.is_json_int(j)):
            raise ValueError(f"edges[{pos}]: endpoints must be integers")
        edges.append((i, j, angles.from_json(raw, where=f"edges[{pos}].angle")))
    inputs = {}
    for key, entry in raw_inputs.items():
        # Only the spelling to_json writes; int() also reads "00", " 1", "+1",
        # "1_0" and non-ASCII digits, so two keys could name one vertex.
        try:
            v = int(key)
        except ValueError:  # not an integer, or too many digits to convert
            v = None
        if v is None or str(v) != key:
            raise ValueError(f"inputs key {key!r} is not a vertex")
        if not isinstance(entry, dict):
            raise ValueError(f"inputs[{key}]: expected an object")
        angles.known_keys(entry, INPUT_KEYS, f"inputs[{key}]")
        role = entry.get("role", "none")
        basis = entry.get("basis", "computational")
        if basis not in ("computational", "hadamard"):
            raise ValueError(f"inputs[{key}].basis: unknown value {basis!r}")
        inputs[v] = InputAssignment(role=role, hadamard=(basis == "hadamard"))
    return WeightedGraph(vertices, edges, inputs)
