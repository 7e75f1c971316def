import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgtoffoli import graphstate as gs
from wgtoffoli import qstate as qs
from wgtoffoli.toffoli import ResourceVariant, build_resource

MAXIMAL = Fraction(1)


angle_strategy = st.builds(
    Fraction,
    st.integers(-16, 16),
    st.integers(1, 8),
).filter(lambda f: f % 2 != 0)


@st.composite
def graph_strategy(draw):
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = [(i, j, draw(angle_strategy)) for i, j in chosen]
    return gs.WeightedGraph(n, edges)


def test_two_vertex_maximal():
    graph = gs.WeightedGraph(2, [(0, 1, MAXIMAL)])
    state = gs.build_state(graph)
    np.testing.assert_allclose(state.amplitudes, [0.5, 0.5, 0.5, -0.5], atol=1e-15)


def test_two_vertex_weighted():
    # (|0>|+> + |1>|theta_+>)/sqrt(2) with theta = pi/2
    graph = gs.WeightedGraph(2, [(0, 1, Fraction(1, 2))])
    state = gs.build_state(graph)
    np.testing.assert_allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5j], atol=1e-15)


def test_single_vertex_is_plus():
    state = gs.build_state(gs.WeightedGraph(1))
    np.testing.assert_allclose(state.amplitudes, qs.KET_PLUS, atol=1e-15)


def test_edge_order_irrelevant():
    rng = np.random.default_rng(23)
    edges = [(0, 1, MAXIMAL), (1, 2, Fraction(1, 2)), (0, 3, Fraction(-1, 4)), (2, 3, MAXIMAL)]
    reference = gs.build_state(gs.WeightedGraph(4, edges)).amplitudes
    for _ in range(5):
        shuffled = [edges[i] for i in rng.permutation(len(edges))]
        state = gs.build_state(gs.WeightedGraph(4, shuffled))
        np.testing.assert_allclose(state.amplitudes, reference, atol=1e-12)


@pytest.mark.parametrize("deleted", [0, 1, 2, 3])
def test_computational_measurement_deletes_vertex(deleted):
    # outcome 0 on a maximal graph leaves the graph state of the deleted graph
    edges = [(0, 1, MAXIMAL), (1, 2, MAXIMAL), (2, 3, MAXIMAL), (0, 3, MAXIMAL)]
    state = gs.build_state(gs.WeightedGraph(4, edges))
    projected = qs.project(state, deleted, qs.KET_ZERO)

    keep = [v for v in range(4) if v != deleted]
    relabel = {v: i for i, v in enumerate(keep)}
    remaining = [
        (relabel[i], relabel[j], MAXIMAL)
        for i, j, _ in edges
        if i != deleted and j != deleted
    ]
    expected = gs.build_state(gs.WeightedGraph(3, remaining))
    got = projected.normalized().amplitudes
    overlap = abs(np.vdot(expected.amplitudes, got))
    assert abs(overlap - 1) < 1e-12


def test_entangled_input_embedding():
    # a Bell pair placed on two vertices of an edgeless graph survives intact,
    # with the spare vertex in |+>
    bell = qs.StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    state = gs.build_state_with_input(
        gs.WeightedGraph(3), bell, (2, 0)
    )  # qubit 1 of the pair on vertex 2, qubit 0 on vertex 0
    tensor = state.amplitudes.reshape(2, 2, 2)  # axes: v2, v1, v0
    np.testing.assert_allclose(
        tensor[:, 0, :].ravel() * np.sqrt(2), bell.amplitudes, atol=1e-12
    )
    np.testing.assert_allclose(tensor[:, 1, :], tensor[:, 0, :], atol=1e-12)


def test_json_round_trip_simple():
    doc = b'{"vertices": 2, "edges": [[0, 1, {"pi_num": 1, "pi_den": 1}]]}'
    graph = gs.from_json(doc)
    assert graph.edges == {(0, 1): MAXIMAL}
    again = gs.from_json(gs.to_json(graph))
    assert graph == again


@settings(max_examples=50, deadline=None)
@given(graph=graph_strategy())
def test_json_round_trip_random_graphs(graph):
    again = gs.from_json(gs.to_json(graph))
    assert graph == again
    assert gs.to_json(graph) == gs.to_json(again)


@pytest.mark.parametrize("kind", ["six", "seven", "eight"])
def test_resource_graph_round_trips(kind):
    graph = build_resource(ResourceVariant(kind))
    again = gs.from_json(gs.to_json(graph))
    assert graph == again
    assert gs.to_json(graph) == gs.to_json(again)


@pytest.mark.parametrize(
    "doc,fragment",
    [
        (b'{"vertices": 2, "edges": [[0, 0, 1.0]]}', "self-loop"),
        (b'{"vertices": 2, "edges": [[0, 1, 1.0], [1, 0, 2.0]]}', "duplicate"),
        (b'{"vertices": 2, "edges": [[0, 1, {"pi_num": 0, "pi_den": 1}]]}', "weight 0"),
        (b'{"vertices": 2, "edges": [[0, 3, 1.0]]}', "missing vertex"),
        (b'{"vertices": 2, "edges": [[0, 1, {"pi_num": 1}]]}', "pi_den"),
        (b'not json', "line 1"),
    ],
)
def test_json_errors(doc, fragment):
    with pytest.raises(gs.GraphFormatError) as err:
        gs.from_json(doc)
    assert fragment in str(err.value)


def test_theta_normalised_mod_two_pi():
    graph = gs.WeightedGraph(2, [(0, 1, Fraction(9, 4))])
    assert graph.edges[(0, 1)] == Fraction(1, 4)
    with pytest.raises(gs.GraphFormatError):
        gs.WeightedGraph(2, [(0, 1, Fraction(2))])


def test_input_assignment_roles():
    with pytest.raises(gs.GraphFormatError):
        gs.InputAssignment(role="target")
    assignment = gs.InputAssignment(role="t", hadamard=True)
    graph = gs.WeightedGraph(1, inputs={0: assignment})
    state = gs.build_state(graph)
    # H applied to the default |+> gives |0>
    np.testing.assert_allclose(state.amplitudes, qs.KET_ZERO, atol=1e-15)


@pytest.mark.parametrize("n", [13, 40])
def test_vertex_limit_enforced_at_construction(n):
    # Only the graph is built, so no 2**n state is ever allocated.
    with pytest.raises(gs.GraphFormatError, match=f"{n} vertices.*MAX_QUBITS = 12"):
        gs.WeightedGraph(n, [(0, 1, MAXIMAL)])
    doc = {"vertices": n, "edges": [[v, v + 1, 1.0] for v in range(n - 1)]}
    with pytest.raises(gs.GraphFormatError, match="MAX_QUBITS"):
        gs.from_json(json.dumps(doc))
    assert gs.WeightedGraph(qs.MAX_QUBITS).vertex_count == 12
