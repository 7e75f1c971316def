import json
import math
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


@pytest.mark.parametrize(
    "vertices,width,message",
    [
        ((0, 7), 4, "input vertex 7 out of range for 4 vertices"),
        ((0, 4), 4, "input vertex 4 out of range for 4 vertices"),
        ((-1, 0), 4, "input vertex -1 out of range for 4 vertices"),
        ((0, 1.0), 4, "input vertex 1.0 is not an integer"),
        ((0, True), 4, "input vertex True is not an integer"),
        ((2, 2), 4, r"input vertices \(2, 2\) are not distinct"),
        ((0, 1, 2), 4, r"input rows of shape \(1, 4\) do not fit 3 vertices: need width 8"),
    ],
)
def test_input_vertices_are_checked(vertices, width, message):
    # numpy raised for the first four ("repeated axis", "same number of
    # elements", TypeError), and a width mismatch blamed the vertices.
    rows = np.ones((1, width), dtype=complex) / np.sqrt(width)
    with pytest.raises(ValueError, match=message):
        gs.embed_input_rows(gs.WeightedGraph(4, [(0, 1, MAXIMAL)]), rows, vertices)
    with pytest.raises(ValueError, match=message):
        gs.build_state_with_input(gs.WeightedGraph(4), qs.StateVector(2, rows[0]), vertices)


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


angle_docs = (
    st.fixed_dictionaries({"pi_num": st.integers(-16, 16), "pi_den": st.integers(1, 8)})
    | st.floats(-10, 10)
    | st.integers(-10, 10)
)
input_docs = st.fixed_dictionaries(
    {},
    optional={
        "role": st.sampled_from(gs.ROLES),
        "basis": st.sampled_from(("computational", "hadamard")),
    },
)


@st.composite
def graph_documents(draw):
    """Graph documents in any spelling ``from_json`` accepts: unreduced or
    unnormalised angles, either endpoint first, optional fields left out."""
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    doc = {"vertices": n}
    edges = [list(draw(st.permutations(pair))) + [draw(angle_docs)] for pair in chosen]
    if edges or draw(st.booleans()):
        doc["edges"] = edges
    inputs = draw(st.dictionaries(st.integers(0, n - 1).map(str), input_docs, max_size=n))
    if inputs or draw(st.booleans()):
        doc["inputs"] = inputs
    return doc


@settings(max_examples=30, deadline=None)
@given(doc=graph_documents())
def test_accepted_graph_documents_round_trip(doc):
    try:
        graph = gs.from_json(json.dumps(doc))
    except gs.GraphFormatError as exc:
        assert "weight 0" in str(exc)  # a zero angle; every other field is valid
        return
    text = gs.to_json(graph)
    assert gs.to_json(gs.from_json(text)) == text
    assert gs.from_json(text) == graph


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


@pytest.mark.parametrize(
    "theta", [Fraction(-2), Fraction(0), Fraction(4), Fraction(6, 3), 2 * math.pi, -4 * math.pi]
)
def test_edge_weight_zero_modulo_two_pi_is_rejected(theta):
    # A rational angle is tested for 0 mod 2 from its numerator and denominator.
    with pytest.raises(gs.GraphFormatError, match="weight 0"):
        gs.WeightedGraph(2, [(0, 1, theta)])


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


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"vertices": True}, "'vertices'"),
        ({"vertices": 2, "edges": {"0": [0, 1, 1.0]}}, "'edges' must be a list"),
        ({"vertices": 2, "edges": None}, "'edges' must be a list"),
        ({"vertices": 2, "inputs": [0]}, "'inputs' must be an object"),
        ({"vertices": 2, "inputs": "c1"}, "'inputs' must be an object"),
        ({"vertices": 2, "edges": [[0, True, 1.0]]}, "edges[0]: endpoints"),
        ({"vertices": 2, "edges": [[0, 1, {"pi_num": True, "pi_den": 1}]]}, "edges[0].angle"),
        ({"vertices": 2, "edges": [[0, 1, 10**400]]}, "edges[0].angle: expected a finite"),
        ({"vertices": 2, "inputs": {"0": 1}}, "inputs[0]: expected an object"),
    ],
)
def test_json_field_errors(doc, fragment):
    with pytest.raises(gs.GraphFormatError) as err:
        gs.from_json(json.dumps(doc))
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "first,second", [("0", "00"), ("1", " 1"), ("10", "1_0"), ("1", "+1"), ("1", "\u0661")]
)
def test_inputs_keys_naming_one_vertex_are_rejected(first, second):
    # Both keys int() to one vertex; only the spelling to_json writes names it,
    # so neither assignment may silently win.
    doc = {"vertices": 11, "inputs": {first: {"basis": "hadamard"}, second: {}}}
    for inputs in (doc["inputs"], {second: {}}):
        with pytest.raises(gs.GraphFormatError) as err:
            gs.from_json(json.dumps({**doc, "inputs": inputs}))
        assert str(err.value) == f"inputs key {second!r} is not a vertex"
    assert gs.from_json(json.dumps({**doc, "inputs": {first: {}}})).inputs.keys() == {int(first)}


@pytest.mark.parametrize(
    "doc,key",
    [
        ('{"vertices": 2, "inputs": {"0": {"basis": "hadamard"}, "0": {}}}', "0"),
        ('{"vertices": 2, "vertices": 3}', "vertices"),
        ('{"vertices": 2, "edges": [[0, 1, {"pi_num": 1, "pi_den": 2, "pi_num": 3}]]}', "pi_num"),
    ],
    ids=["inputs", "vertices", "angle"],
)
def test_repeated_json_keys_are_rejected(doc, key):
    # json.loads alone keeps the last value of a repeated key.
    with pytest.raises(gs.GraphFormatError, match=f"key '{key}' appears more than once"):
        gs.from_json(doc)


def test_json_rejects_non_finite_and_undecodable_input():
    with pytest.raises(gs.GraphFormatError, match="finite"):
        gs.from_json('{"vertices": 2, "edges": [[0, 1, NaN]]}')
    with pytest.raises(gs.GraphFormatError, match="UTF-8"):
        gs.from_json(b'{"vertices": 2}\xff')


@pytest.mark.parametrize(
    "doc,message",
    [
        (
            {"vertices": 2, "edges": [[0, 1, 1.0]], "input": {"0": {"basis": "hadamard"}}},
            "top level: unknown key 'input'",
        ),
        ({"vertices": 2, "inputs": {"0": {"bases": "hadamard"}}}, "inputs[0]: unknown key 'bases'"),
        (
            {"vertices": 2, "edges": [[0, 1, {"pi_num": 1, "pi_den": 2, "x": 1}]]},
            "edges[0].angle: unknown key 'x'",
        ),
    ],
    ids=["input", "bases", "angle"],
)
def test_from_json_rejects_unknown_keys(doc, message):
    # Each of these documents used to build a graph without the misspelt field.
    with pytest.raises(gs.GraphFormatError) as err:
        gs.from_json(json.dumps(doc))
    assert str(err.value) == message


json_scalars = st.none() | st.booleans() | st.integers(-3, 14) | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


pi_angles = st.fixed_dictionaries({"pi_num": st.integers(-8, 8), "pi_den": st.integers(-4, 4)})
few_vertices = st.integers(0, 5)
# Well-typed documents reach WeightedGraph; noisy ones probe the parser.
typed_graph = st.fixed_dictionaries(
    {
        "vertices": st.integers(6, 13),
        "edges": st.lists(
            st.tuples(few_vertices, few_vertices, pi_angles | st.floats(-10, 10)).map(list),
            max_size=6,
            unique_by=lambda edge: frozenset(edge[:2]),
        ),
    },
    optional={
        "inputs": st.dictionaries(
            few_vertices.map(str),
            st.fixed_dictionaries(
                {},
                optional={
                    "role": st.sampled_from(gs.ROLES),
                    "basis": st.sampled_from(("computational", "hadamard")),
                },
            ),
            max_size=3,
        )
    },
)
noisy_vertex = st.integers(-1, 14) | json_values
noisy_angle = pi_angles | st.floats() | st.integers(-(10**400), 10**400) | json_values
noisy_graph = st.fixed_dictionaries(
    {},
    optional={
        "vertices": noisy_vertex,
        "edges": st.lists(
            st.tuples(noisy_vertex, noisy_vertex, noisy_angle).map(list) | json_values, max_size=6
        )
        | json_values,
        "inputs": st.dictionaries(
            st.integers(-1, 13).map(str) | st.text(max_size=3),
            st.fixed_dictionaries({}, optional={"role": json_values, "basis": json_values})
            | json_values,
            max_size=3,
        )
        | json_values,
    },
)
graph_json = typed_graph | noisy_graph | json_values


@settings(max_examples=300, deadline=None)
@given(doc=graph_json)
def test_from_json_fuzz_raises_only_graph_format_errors(doc):
    try:
        graph = gs.from_json(json.dumps(doc))
    except gs.GraphFormatError:
        return
    assert 1 <= graph.vertex_count <= qs.MAX_QUBITS
