import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from wgtoffoli import graphstate, mbqc
from wgtoffoli import qstate as qs
from wgtoffoli import toffoli
from wgtoffoli.graphstate import WeightedGraph, build_state_with_input

MAXIMAL = Fraction(1)


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return qs.StateVector(n, amps / np.linalg.norm(amps))


# --- bases ---


def test_plain_basis_kets():
    plus, minus = mbqc.basis_states(mbqc.MeasurementBasis())
    np.testing.assert_allclose(plus, qs.KET_PLUS, atol=1e-15)
    np.testing.assert_allclose(minus, qs.KET_MINUS, atol=1e-15)


def test_hadamard_basis_kets():
    plus, minus = mbqc.basis_states(mbqc.MeasurementBasis(hadamard=True))
    np.testing.assert_allclose(plus, qs.KET_ZERO, atol=1e-15)
    np.testing.assert_allclose(minus, qs.KET_ONE, atol=1e-15)


def test_basis_orthonormal():
    rng = np.random.default_rng(2)
    for alpha in rng.uniform(0, 2 * np.pi, size=10):
        plus, minus = mbqc.basis_states(mbqc.MeasurementBasis(alpha, hadamard=True))
        assert abs(np.vdot(plus, plus) - 1) < 1e-12
        assert abs(np.vdot(plus, minus)) < 1e-12


# --- single-wire teleportation ---


def teleport_setup(rng):
    psi = random_state(rng, 1)
    graph = WeightedGraph(2, [(0, 1, MAXIMAL)])
    return psi, build_state_with_input(graph, psi, (0,))


def test_teleport_outcome_zero():
    rng = np.random.default_rng(31)
    psi, state = teleport_setup(rng)
    pattern = mbqc.Pattern([mbqc.PatternStep(0, mbqc.MeasurementBasis())])
    prob, out = mbqc.run_branch(state, pattern, {0: 0})
    expected = qs.HADAMARD @ psi.amplitudes / np.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)
    assert abs(prob - 0.5) < 1e-12


def test_teleport_outcome_one():
    rng = np.random.default_rng(32)
    psi, state = teleport_setup(rng)
    pattern = mbqc.Pattern([mbqc.PatternStep(0, mbqc.MeasurementBasis())])
    prob, out = mbqc.run_branch(state, pattern, {0: 1})
    expected = qs.PAULI_X @ qs.HADAMARD @ psi.amplitudes / np.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)
    assert abs(prob - 0.5) < 1e-12


# --- the three-qubit gadget ---


def gadget_branch(psi, theta, outcome, hadamard=True):
    chain = WeightedGraph(3, [(0, 1, MAXIMAL), (1, 2, MAXIMAL)])
    state = build_state_with_input(chain, psi, (2, 0))
    basis = mbqc.MeasurementBasis(theta / 2, hadamard=hadamard)
    pattern = mbqc.Pattern([mbqc.PatternStep(1, basis)])
    return mbqc.run_branch(state, pattern, {1: outcome})


def gadget_expected(psi, theta, outcome):
    gate = np.kron(qs.rz(-theta / 2), qs.rz(-theta / 2)) @ np.diag(
        [1, 1, 1, np.exp(1j * theta)]
    )
    byproduct = np.kron(qs.PAULI_Z, qs.PAULI_Z) if outcome else np.eye(4)
    return byproduct @ gate @ psi.amplitudes / np.sqrt(2)


def test_gadget_identity_random_angles():
    rng = np.random.default_rng(41)
    for theta in rng.uniform(0, 2 * np.pi, size=20):
        psi = random_state(rng, 2)
        for outcome in (0, 1):
            prob, out = gadget_branch(psi, theta, outcome)
            np.testing.assert_allclose(
                out.amplitudes, gadget_expected(psi, theta, outcome), atol=1e-10
            )
            assert abs(prob - 0.5) < 1e-10


def test_gadget_needs_hadamard_composed_kets():
    # projecting onto the bare tilted kets does not realise the phase gate
    rng = np.random.default_rng(42)
    theta = 1.234
    psi = random_state(rng, 2)
    _, out = gadget_branch(psi, theta, 0, hadamard=False)
    expected = gadget_expected(psi, theta, 0)
    overlap = abs(np.vdot(expected, out.amplitudes)) / (
        np.linalg.norm(expected) * np.linalg.norm(out.amplitudes)
    )
    assert overlap < 0.999


def test_correction_absorption():
    # measuring with absorbed R equals applying R first, branch by branch
    rng = np.random.default_rng(43)
    correction, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    psi = random_state(rng, 2)
    chain = WeightedGraph(3, [(0, 1, MAXIMAL), (1, 2, MAXIMAL)])
    state = build_state_with_input(chain, psi, (2, 0))
    basis = mbqc.MeasurementBasis(Fraction(1, 4), hadamard=True)
    absorbed = mbqc.MeasurementBasis(Fraction(1, 4), hadamard=True, absorbed=correction)
    for outcome in (0, 1):
        pattern_a = mbqc.Pattern([mbqc.PatternStep(1, absorbed)])
        _, out_a = mbqc.run_branch(state, pattern_a, {1: outcome})
        pattern_b = mbqc.Pattern([mbqc.PatternStep(1, basis)])
        _, out_b = mbqc.run_branch(qs.apply_operator(state, (1,), correction), pattern_b, {1: outcome})
        np.testing.assert_allclose(out_a.amplitudes, out_b.amplitudes, atol=1e-12)


# --- branch enumeration ---


def test_outcome_row_inverts_outcome_prefixes():
    # The row of a dict spells its bits in the order of the given vertices.
    vertices = (3, 1, 7)
    rows = [mbqc.outcome_row(vertices, outcomes) for outcomes in mbqc.outcome_prefixes(vertices)]
    assert rows == list(range(8))
    assert mbqc.outcome_row(vertices, {7: 1, 3: 1, 1: 0}) == 0b101


def test_enumerate_keeps_zero_branches():
    pattern = mbqc.Pattern([mbqc.PatternStep(0, mbqc.MeasurementBasis())])
    branches = mbqc.enumerate_branches(qs.plus_state(1), pattern)
    assert [(o[0], round(p, 12)) for o, p, _ in branches] == [(0, 1.0), (1, 0.0)]


def test_enumerate_probabilities_sum_to_one():
    rng = np.random.default_rng(44)
    state = build_state_with_input(
        WeightedGraph(4, [(0, 1, MAXIMAL), (1, 2, Fraction(1, 2)), (2, 3, MAXIMAL)]),
        random_state(rng, 1),
        (0,),
    )
    pattern = mbqc.Pattern(
        [
            mbqc.PatternStep(0, mbqc.MeasurementBasis()),
            mbqc.PatternStep(1, mbqc.MeasurementBasis(Fraction(1, 4))),
            mbqc.PatternStep(2, mbqc.MeasurementBasis(hadamard=True)),
        ]
    )
    branches = mbqc.enumerate_branches(state, pattern)
    assert len(branches) == 8
    assert abs(sum(p for _, p, _ in branches) - 1) < 1e-10


def test_branch_probability_order_invariant():
    rng = np.random.default_rng(45)
    state = random_state(rng, 3)
    steps = [mbqc.PatternStep(v, mbqc.COMPUTATIONAL) for v in range(3)]
    base = {
        tuple(sorted(o.items())): p
        for o, p, _ in mbqc.enumerate_branches(state, mbqc.Pattern(steps))
    }
    flipped = {
        tuple(sorted(o.items())): p
        for o, p, _ in mbqc.enumerate_branches(state, mbqc.Pattern(steps[::-1]))
    }
    for key, p in base.items():
        assert abs(flipped[key] - p) < 1e-12


def test_pattern_rejects_duplicate_vertices():
    with pytest.raises(ValueError):
        mbqc.Pattern([mbqc.PatternStep(1, mbqc.COMPUTATIONAL)] * 2)


def test_enumerate_rejects_too_many_measurements():
    steps = [mbqc.PatternStep(v, mbqc.COMPUTATIONAL) for v in range(17)]
    with pytest.raises(ValueError):
        mbqc.enumerate_branches(qs.plus_state(2), mbqc.Pattern(steps))


def test_non_finite_basis_angle_fails_the_projection_check():
    # NaN compares false with the tolerance, so these returned probability nan.
    # A basis refuses a NaN angle when it is made; the projection check stays
    # the second guard, here for a basis whose angle was set around that.
    with pytest.raises(ValueError, match="basis alpha must be a finite number, got nan"):
        mbqc.MeasurementBasis(alpha=float("nan"))
    basis = mbqc.MeasurementBasis()
    object.__setattr__(basis, "alpha", float("nan"))
    pattern = mbqc.Pattern([mbqc.PatternStep(0, basis)])
    with pytest.raises(ValueError, match="projection ket must be normalised"):
        mbqc.enumerate_branches(qs.plus_state(2), pattern)
    with pytest.raises(ValueError, match="projection ket must be normalised"):
        mbqc.run_branch(qs.plus_state(2), pattern, {0: 0})


@pytest.mark.parametrize(
    "alpha",
    ["x", [1], float("nan"), float("inf"), float("-inf"), Fraction(10**400)],
    ids=["str", "list", "nan", "inf", "minus-inf", "fraction-overflows"],
)
def test_basis_rejects_an_angle_that_is_not_a_finite_number(alpha):
    # A string angle built, and a walk then failed inside basis_states with
    # "could not convert string to float"; NaN reached the projection check.
    with pytest.raises(ValueError) as err:
        mbqc.MeasurementBasis(alpha=alpha, hadamard=True)
    assert str(err.value) == f"basis alpha must be a finite number, got {alpha!r}"


def test_adaptive_basis_sees_earlier_outcomes():
    seen = {}

    def resolve(outcomes):
        seen.update(outcomes)
        return mbqc.COMPUTATIONAL

    pattern = mbqc.Pattern(
        [
            mbqc.PatternStep(0, mbqc.COMPUTATIONAL),
            mbqc.PatternStep(1, resolve),
        ]
    )
    mbqc.run_branch(qs.plus_state(2), pattern, {0: 1, 1: 0})
    assert seen == {0: 1}


def mixed_pattern_state():
    """Six vertices, measured out of label order, on a weighted graph.

    Vertex 5 is isolated in |+> and measured at alpha = 0, so every branch
    with outcome 1 there has probability exactly 0.
    """
    rng = np.random.default_rng(46)
    graph = WeightedGraph(
        6,
        [
            (0, 1, MAXIMAL),
            (1, 2, Fraction(1, 3)),
            (2, 3, MAXIMAL),
            (3, 4, 1.1),
            (0, 4, Fraction(-1, 2)),
        ],
    )
    state = build_state_with_input(graph, random_state(rng, 2), (4, 1))
    correction, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))

    def adaptive(seen):
        assert list(seen) == [4, 1, 5]
        sign = -1 if seen[4] ^ seen[1] else 1
        return mbqc.MeasurementBasis(sign * Fraction(1, 4), hadamard=True)

    pattern = mbqc.Pattern(
        [
            mbqc.PatternStep(4, mbqc.MeasurementBasis(Fraction(1, 4), hadamard=True)),
            mbqc.PatternStep(1, mbqc.MeasurementBasis(0.7, absorbed=correction)),
            mbqc.PatternStep(5, mbqc.MeasurementBasis()),
            mbqc.PatternStep(0, adaptive),
        ]
    )
    return state, pattern


def test_enumerate_equals_run_branch_bitwise():
    state, pattern = mixed_pattern_state()
    branches = mbqc.enumerate_branches(state, pattern)
    expected_bits = list(itertools.product((0, 1), repeat=4))
    assert len(branches) == len(expected_bits)
    zero_branches = 0
    for (outcomes, probability, final), bits in zip(branches, expected_bits):
        reference = dict(zip(pattern.vertices, bits))
        ref_probability, ref_final = mbqc.run_branch(state, pattern, reference)
        assert outcomes == reference and list(outcomes) == pattern.vertices
        assert probability == ref_probability
        assert final.num_qubits == ref_final.num_qubits == 2
        assert np.array_equal(final.amplitudes, ref_final.amplitudes)
        zero_branches += probability == 0
    assert zero_branches == 8  # outcome 1 on the isolated vertex


def count_basis_resolutions(monkeypatch):
    resolved = []
    original = mbqc.basis_states

    def spy(basis):
        resolved.append(basis)
        return original(basis)

    monkeypatch.setattr(mbqc, "basis_states", spy)
    return resolved


def count_projections(monkeypatch):
    """Node count of each ``project_axis`` call the walk makes."""
    nodes = []
    original = mbqc.project_axis

    def spy(level, axis, kets):
        nodes.append(len(level))
        return original(level, axis, kets)

    monkeypatch.setattr(mbqc, "project_axis", spy)
    return nodes


def test_walk_resolves_fixed_bases_once_and_adaptive_ones_per_distinct_basis(monkeypatch):
    resolved = count_basis_resolutions(monkeypatch)
    projected = count_projections(monkeypatch)
    state, pattern = mixed_pattern_state()
    mbqc.enumerate_branches(state, pattern)
    # Three fixed steps, one projection of the whole level each. The
    # adaptive callable builds a fresh basis at each of its 2**3 nodes, so
    # each node is its own group.
    assert [id(b) for b in resolved[:3]] == [id(step.basis) for step in pattern.steps[:3]]
    assert len(resolved) == 3 + 2**3
    assert projected == [1, 2, 4] + [1] * 2**3
    resolved.clear()
    projected.clear()
    # Six: three fixed steps, one call per depth.
    six = toffoli.ResourceVariant("six")
    toffoli.branch_outputs(six, toffoli.NO_LINKING, np.eye(8))
    assert len(resolved) == 3
    assert projected == [1, 2, 4]
    resolved.clear()
    projected.clear()
    # Seven: two fixed steps, then adaptive steps at depths 2 and 3 whose
    # callables return one of two shared bases, split by the outcome of
    # the first step.
    seven = toffoli.ResourceVariant("seven")
    toffoli.branch_outputs(seven, toffoli.NO_LINKING, np.eye(8))
    assert len(resolved) == 2 + 2 + 2
    assert projected == [1, 2, 2, 2, 4, 4]


def block_patterns():
    """Three patterns over vertices 3, 0, 4 of a five-qubit register.

    Depth 0: blocks 0 and 1 share one fixed basis, block 2 has its own.
    Depth 1: every block shares one callable that picks one of two bases
    by the outcome on vertex 3. Depth 2: block 0 builds a fresh basis at
    every node, blocks 1 and 2 share one fixed basis. Returns the
    patterns, the number of distinct bases at each depth and the shared
    callable's calls.
    """
    shared_fixed = mbqc.MeasurementBasis(Fraction(1, 4), True)
    own_fixed = mbqc.MeasurementBasis(Fraction(-1, 3), False, qs.PAULI_X)
    calls = []
    flipped, plain = mbqc.MeasurementBasis(Fraction(1, 2)), mbqc.MeasurementBasis(Fraction(-1, 2))

    def shared_callable(seen):
        calls.append(dict(seen))
        return flipped if seen[3] else plain

    tail = mbqc.MeasurementBasis(Fraction(2, 3), True)

    def fresh(seen):
        return mbqc.MeasurementBasis(Fraction(seen[3] + 2 * seen[0], 5))

    patterns = [
        mbqc.Pattern([mbqc.PatternStep(v, basis) for v, basis in zip((3, 0, 4), bases)])
        for bases in (
            (shared_fixed, shared_callable, fresh),
            (shared_fixed, shared_callable, tail),
            (own_fixed, shared_callable, tail),
        )
    ]
    return patterns, [2, 2, 4 + 1], calls


def test_block_patterns_walk_each_block_as_its_own_pattern(monkeypatch):
    rng = np.random.default_rng(20261019)
    patterns, distinct, calls = block_patterns()
    rows = np.stack([random_state(rng, 5).amplitudes for _ in range(6)]).reshape((6,) + (2,) * 5)
    rows[1, 0, 1] = complex(-0.0, 0.0)  # signed zeros keep their bits
    projected = count_projections(monkeypatch)
    resolved = count_basis_resolutions(monkeypatch)
    leaves = mbqc.outcome_tree_leaves(patterns, rows)
    assert leaves.shape == (8, 6, 2, 2)
    # One kernel call per distinct basis at each depth, and the shared
    # callable called once per node however many blocks share it.
    assert len(projected) == len(resolved) == sum(distinct)
    assert len(calls) == 2
    monkeypatch.undo()
    for block, pattern in enumerate(patterns):
        alone = mbqc.outcome_tree_leaves(pattern, rows[2 * block : 2 * block + 2])
        assert leaves[:, 2 * block : 2 * block + 2].tobytes() == alone.tobytes(), block
    # Blocks that share every basis object make the kernel calls of one
    # block: a fixed depth projects its whole level, and the adaptive depth
    # one (node, block) pair of each block per basis.
    projected = count_projections(monkeypatch)
    shared = mbqc.outcome_tree_leaves([patterns[1]] * 3, rows)
    assert projected == [1, 3, 3, 4]
    alone = mbqc.outcome_tree_leaves(patterns[1], rows)
    assert shared.tobytes() == alone.tobytes()


@pytest.mark.parametrize("shape", [(1, 2, 3), (1, 4, 4), (0, 2), (2, 2, 1), ()])
def test_walk_rejects_tensors_that_are_not_qubit_registers(shape):
    pattern = mbqc.Pattern([mbqc.PatternStep(0, mbqc.MeasurementBasis())])
    with pytest.raises(ValueError, match="qubit registers"):
        mbqc.outcome_tree_leaves(pattern, np.ones(shape, dtype=complex))


def test_walk_rejects_blocks_that_do_not_fit():
    patterns, _, _ = block_patterns()
    rows = np.ones((6,) + (2,) * 5, dtype=complex)
    with pytest.raises(ValueError, match="6 rows do not split into 4 equal blocks"):
        mbqc.outcome_tree_leaves(patterns + patterns[:1], rows)
    with pytest.raises(ValueError, match="do not split into 0 equal blocks"):
        mbqc.outcome_tree_leaves([], rows)
    reordered = mbqc.Pattern([patterns[0].steps[1], patterns[0].steps[0], patterns[0].steps[2]])
    with pytest.raises(ValueError, match="same vertices in the same order"):
        mbqc.outcome_tree_leaves([patterns[1], reordered, patterns[2]], rows)
    shorter = mbqc.Pattern(patterns[0].steps[:2])
    with pytest.raises(ValueError, match="same vertices in the same order"):
        mbqc.outcome_tree_leaves([patterns[1], patterns[2], shorter], rows)


def test_enumerate_without_measurements_returns_the_state():
    state = qs.plus_state(2)
    [(outcomes, probability, final)] = mbqc.enumerate_branches(state, mbqc.Pattern([]))
    assert outcomes == {} and probability == 1.0 and final is state


@pytest.mark.parametrize(
    "state,vertices,message",
    [
        (qs.plus_state(2), (0, 2), "vertex 2 not present"),
        (qs.StateVector(2, np.zeros(4)), (0, 1), "zero state"),
    ],
)
def test_enumerate_rejects_before_any_projection(monkeypatch, state, vertices, message):
    calls = []
    monkeypatch.setattr(mbqc, "project_axis", lambda *args: calls.append(args))

    def resolve(seen):
        calls.append(seen)
        return mbqc.COMPUTATIONAL

    pattern = mbqc.Pattern([mbqc.PatternStep(v, resolve) for v in vertices])
    with pytest.raises(ValueError, match=message):
        mbqc.enumerate_branches(state, pattern)
    assert calls == []


# --- large weighted graphs with feed-forward ---

# The graph generator of the large-graphs benchmark workload, copied so
# that the tests do not import the benchmark.
GRAPH_SHAPES = [(8, 4), (9, 5), (10, 6), (11, 6), (12, 8)]
RATIONAL_ANGLES = [
    Fraction(n, d)
    for n, d in ((1, 4), (1, 2), (3, 4), (1, 1), (1, 3), (2, 3), (-1, 2), (5, 4), (-1, 8))
]


def random_angle(rng: random.Random):
    """A rational multiple of pi or a float in radians, never 0 mod 2*pi."""
    if rng.random() < 0.5:
        return rng.choice(RATIONAL_ANGLES)
    return rng.uniform(0.2, 2 * math.pi - 0.2)


def angle_json(angle):
    if isinstance(angle, Fraction):
        return {"pi_num": angle.numerator, "pi_den": angle.denominator}
    return angle


def random_graph_state(rng: random.Random, n: int) -> qs.StateVector:
    """A random connected weighted graph state, read from its JSON document."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {}
    for k in range(1, n):  # spanning tree, then extra edges up to 3n/2
        a, b = order[k], order[rng.randrange(k)]
        edges[(min(a, b), max(a, b))] = random_angle(rng)
    while len(edges) < n + n // 2:
        a, b = rng.sample(range(n), 2)
        edges.setdefault((min(a, b), max(a, b)), random_angle(rng))
    hadamard = sorted(rng.sample(range(n), n // 4))
    doc = {
        "vertices": n,
        "edges": [[i, j, angle_json(w)] for (i, j), w in sorted(edges.items())],
        "inputs": {str(v): {"role": "none", "basis": "hadamard"} for v in hadamard},
    }
    return graphstate.build_state(graphstate.from_json(json.dumps(doc)))


def chosen_basis(vertices, one, zero):
    """Adaptive basis: ``one`` where every vertex in ``vertices`` gave 1, else ``zero``."""
    return lambda seen: one if all(seen[v] for v in vertices) else zero


def fresh_basis(vertex, alpha, hadamard):
    """Adaptive basis built anew at each call; outcome 1 on ``vertex`` negates the angle."""
    return lambda seen: mbqc.MeasurementBasis(-alpha if seen[vertex] else alpha, hadamard)


def feed_forward_pattern(rng: random.Random, n: int, m: int):
    """Steps cycling through fixed, shared-object, fresh-object and twin bases.

    A shared step returns one of two prebuilt bases by an earlier outcome,
    a fresh step builds a new basis at every call, and a twin step returns
    one of two distinct bases with equal values: the first where two
    earlier outcomes are both 1, the second elsewhere. Returns the pattern,
    the node count of each ``project_axis`` call the level walk should
    make, and the twin bases with the node counts each should project.
    """
    steps, calls, twins = [], [], []
    for k, v in enumerate(rng.sample(range(n), m)):
        alpha, hadamard = random_angle(rng), rng.random() < 0.3
        plain = mbqc.MeasurementBasis(alpha, hadamard)
        earlier = rng.sample([step.vertex for step in steps], min(k, 2))
        nodes = 1 << k
        if k % 4 == 0:
            basis = plain
            calls.append(nodes)
        elif k % 4 == 1:
            basis = chosen_basis(earlier[:1], mbqc.MeasurementBasis(-alpha, hadamard), plain)
            calls += [nodes // 2] * 2
        elif k % 4 == 2:
            basis = fresh_basis(earlier[0], alpha, hadamard)
            calls += [1] * nodes
        else:
            twin = mbqc.MeasurementBasis(alpha, hadamard)
            basis = chosen_basis(earlier, twin, plain)
            calls += [3 * nodes // 4, nodes // 4]
            twins += [(plain, 3 * nodes // 4), (twin, nodes // 4)]
        steps.append(mbqc.PatternStep(v, basis))
    return mbqc.Pattern(steps), calls, twins


def test_large_graph_walk_equals_run_branch_bitwise(monkeypatch):
    rng = random.Random(20261018)
    original_states, original_project = mbqc.basis_states, mbqc.project_axis
    for n, m in GRAPH_SHAPES:
        state = random_graph_state(rng, n)
        pattern, calls, twins = feed_forward_pattern(rng, n, m)
        resolved, projected = {}, []

        def states_spy(basis):
            kets = original_states(basis)
            resolved[id(kets)] = basis
            return kets

        def project_spy(level, axis, kets):
            projected.append((resolved[id(kets)], len(level)))
            return original_project(level, axis, kets)

        monkeypatch.setattr(mbqc, "basis_states", states_spy)
        monkeypatch.setattr(mbqc, "project_axis", project_spy)
        branches = mbqc.enumerate_branches(state, pattern)
        monkeypatch.undo()
        assert [nodes for _, nodes in projected] == calls
        # Equal twins are told apart by identity: each is resolved once and
        # projects its own nodes.
        for twin, nodes in twins:
            assert [count for basis, count in projected if basis is twin] == [nodes]
        assert len(branches) == 1 << m
        for (outcomes, probability, final), bits in zip(
            branches, itertools.product((0, 1), repeat=m)
        ):
            assert outcomes == dict(zip(pattern.vertices, bits))
            ref_probability, ref_final = mbqc.run_branch(state, pattern, outcomes)
            assert probability.hex() == ref_probability.hex()
            assert final.amplitudes.tobytes() == ref_final.amplitudes.tobytes()


# --- frames ---


def test_z_squared_is_identity():
    z = mbqc.make_word(z=1)
    frame = mbqc.frame_compose(
        mbqc.ByproductOperator(("t",), {"t": z}),
        mbqc.ByproductOperator(("t",), {"t": z}),
    )
    assert frame.words["t"] == mbqc.WireWord()
    assert frame.global_phase == 1


def test_rz_quarters_accumulate_to_z():
    # Rz(-pi/2) twice is Rz(-pi) = Z up to phase; words canonicalise k to 0..3
    word = mbqc.make_word(k=6)
    product, phase = mbqc._word_mul(word, word)
    matrix = phase * product.matrix()
    np.testing.assert_allclose(matrix, qs.rz(-np.pi), atol=1e-12)
    assert product.z == 1 and product.k == 0


def test_x_rz_commutation():
    x = mbqc.make_word(x=1)
    r = mbqc.make_word(k=3)
    left, lp = mbqc._word_mul(x, r)
    right, rp = mbqc._word_mul(r, x)
    np.testing.assert_allclose(lp * left.matrix(), qs.PAULI_X @ r.matrix(), atol=1e-12)
    np.testing.assert_allclose(rp * right.matrix(), r.matrix() @ qs.PAULI_X, atol=1e-12)


CANONICAL_WORDS = [mbqc.WireWord(x, z, k) for x in (0, 1) for z in (0, 1) for k in range(4)]


def hex_parts(value) -> tuple[str, str]:
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def test_memoised_word_algebra_matches_direct_formula():
    # Twice over, so that the second round reads the memo tables.
    for _ in range(2):
        for x, z, k in itertools.product(range(4), range(3), range(-9, 17)):
            assert mbqc.make_word(x, z, k) == reference.make_word(x, z, k)
        for a, b in itertools.product(CANONICAL_WORDS, repeat=2):
            word, phase = mbqc._word_mul(a, b)
            want_word, want_phase = reference.word_mul(a, b)
            assert word == want_word
            # Bit for bit, so that the sign of a zero part counts too.
            assert type(phase) is type(want_phase)
            assert hex_parts(phase) == hex_parts(want_phase)
        for word in CANONICAL_WORDS:
            assert word.matrix().tobytes() == reference.word_matrix(word).tobytes()


def test_cached_word_matrices_are_read_only():
    word = mbqc.make_word(x=1, k=3)
    frame = mbqc.ByproductOperator(("c1", "t"), {"c1": word})
    first = mbqc.frame_to_operator(frame)
    with pytest.raises(ValueError):
        word.matrix()[0, 0] = 0
    # The dense matrix is a fresh array on every call.
    first[0, 0] = 7
    np.testing.assert_array_equal(
        mbqc.frame_to_operator(frame), qs.kron_all(reference.word_matrix(word), qs.ID2)
    )


word_strategy = st.builds(
    mbqc.make_word,
    x=st.integers(0, 1),
    z=st.integers(0, 1),
    k=st.integers(0, 7),
)


@settings(max_examples=100, deadline=None)
@given(a0=word_strategy, a1=word_strategy, b0=word_strategy, b1=word_strategy)
def test_frame_compose_matches_matrix_product(a0, a1, b0, b1):
    wires = ("c1", "t")
    frame_a = mbqc.ByproductOperator(wires, {"c1": a0, "t": a1})
    frame_b = mbqc.ByproductOperator(wires, {"c1": b0, "t": b1})
    composed = mbqc.frame_to_operator(mbqc.frame_compose(frame_a, frame_b))
    product = mbqc.frame_to_operator(frame_a) @ mbqc.frame_to_operator(frame_b)
    np.testing.assert_allclose(composed, product, atol=1e-12)


def test_frame_compose_with_nonlocal_factor():
    wires = ("c1", "c2", "t")
    factor = qs.kron_all(qs.ID2, qs.CNOT)
    frame_a = mbqc.ByproductOperator(
        wires, {"c1": mbqc.make_word(z=1)}, nonlocal_factor=factor
    )
    frame_b = mbqc.ByproductOperator(wires, {"t": mbqc.make_word(x=1, k=2)})
    for left, right in ((frame_a, frame_b), (frame_b, frame_a)):
        composed = mbqc.frame_to_operator(mbqc.frame_compose(left, right))
        product = mbqc.frame_to_operator(left) @ mbqc.frame_to_operator(right)
        np.testing.assert_allclose(composed, product, atol=1e-12)


def test_frame_words_are_filled_in_and_checked():
    z = mbqc.make_word(z=1)
    partial = mbqc.ByproductOperator(("c1", "c2", "t"), {"t": z})
    assert partial.words == {"t": z, "c1": mbqc.WireWord(), "c2": mbqc.WireWord()}
    reordered = mbqc.ByproductOperator(("c1", "t"), {"t": z, "c1": z})
    assert reordered.describe() == "c1:Z t:Z"
    for words in ({"c1": z, "x": z}, {"c1": z, "t": z, "x": z}):
        with pytest.raises(ValueError, match="declared wires"):
            mbqc.ByproductOperator(("c1", "t"), words)


def test_frame_compose_wire_mismatch():
    with pytest.raises(ValueError):
        mbqc.frame_compose(
            mbqc.ByproductOperator(("a",)), mbqc.ByproductOperator(("b",))
        )


def test_frame_to_operator_single_z():
    frame = mbqc.ByproductOperator(
        ("c1", "c2", "t"), {"c1": mbqc.make_word(z=1)}
    )
    expected = qs.kron_all(qs.PAULI_Z, qs.ID2, qs.ID2)
    np.testing.assert_allclose(mbqc.frame_to_operator(frame), expected, atol=1e-15)
