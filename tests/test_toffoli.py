import dataclasses
import gc
import itertools
from fractions import Fraction

import numpy as np
import pytest
from reference import (
    branch_map,
    composed_frame,
    encoded_state_per_row,
    local_branch_counts,
    reconstruct_operator,
    uniformity_by_enumeration,
    uniformity_draws,
)

from wgtoffoli import mbqc
from wgtoffoli import qstate as qs
from wgtoffoli import toffoli as tf
from wgtoffoli import verify
from wgtoffoli.mbqc import frame_to_operator

MAXIMAL = Fraction(1)


def random_states(seed, count, n=3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        out.append(qs.StateVector(n, amps / np.linalg.norm(amps)))
    return out


ALL_LINKING = [
    tf.LinkingByproducts(sx, sz)
    for sx, sz in itertools.product(itertools.product((0, 1), repeat=3), repeat=2)
]


def accepted_sx(variant):
    return sorted(variant.spec.prefactors)


def all_outcomes(variant):
    vertices = variant.measured_vertices
    for bits in itertools.product((0, 1), repeat=len(vertices)):
        yield dict(zip(vertices, bits))


# --- resource graphs ---


def test_six_qubit_graph_structure():
    graph = tf.build_resource(tf.ResourceVariant("six"))
    weighted = [(i, j, t) for i, j, t in graph.edge_list() if t != MAXIMAL]
    assert weighted == [
        (0, 1, Fraction(1, 2)),
        (0, 3, Fraction(3, 2)),  # -pi/2 stored mod 2pi
        (0, 5, Fraction(1, 2)),
    ]
    assert len(graph.edge_list()) == 8
    roles = {v: a.role for v, a in graph.inputs.items()}
    assert roles == {tf.C1_VERTEX: "c1", tf.C2_VERTEX: "c2", tf.T_IN_VERTEX: "t"}


def test_seven_swaps_weighted_edge_for_gadget():
    six = tf.build_resource(tf.ResourceVariant("six"))
    seven = tf.build_resource(tf.ResourceVariant("seven"))
    assert (0, 3) in six.edges and (0, 3) not in seven.edges
    assert seven.edges[(0, 6)] == MAXIMAL and seven.edges[(3, 6)] == MAXIMAL
    assert len(seven.edge_list()) == len(six.edge_list()) + 1


def test_eight_adds_second_gadget():
    seven = tf.build_resource(tf.ResourceVariant("seven"))
    eight = tf.build_resource(tf.ResourceVariant("eight"))
    assert (0, 5) in seven.edges and (0, 5) not in eight.edges
    assert eight.edges[(0, 7)] == MAXIMAL and eight.edges[(5, 7)] == MAXIMAL
    assert len(eight.edge_list()) == len(seven.edge_list()) + 1


# The wiring of the toffoli module docstring, in its 1-based labels:
# maximal edges, weighted edges as multiples of theta/2, measurement order.
DOCSTRING_WIRING = {
    "six": ([(2, 3), (3, 4), (4, 5), (3, 6), (5, 6)], [(1, 2, 1), (1, 4, -1), (1, 6, 1)], [2, 3, 4]),
    "seven": (
        [(2, 3), (3, 4), (4, 5), (3, 6), (5, 6), (1, 7), (4, 7)],
        [(1, 2, 1), (1, 6, 1)],
        [3, 2, 4, 7],
    ),
    "eight": (
        [(2, 3), (3, 4), (4, 5), (3, 6), (5, 6), (1, 7), (4, 7), (1, 8), (6, 8)],
        [(1, 2, 1)],
        [3, 2, 4, 7, 8],
    ),
}


@pytest.mark.parametrize("theta", [Fraction(1), Fraction(1, 3)])
@pytest.mark.parametrize("kind", ["six", "seven", "eight"])
def test_resource_matches_docstring_wiring(kind, theta):
    maximal, weighted, order = DOCSTRING_WIRING[kind]
    variant = tf.ResourceVariant(kind, theta)
    expected = [(i - 1, j - 1, MAXIMAL) for i, j in maximal]
    expected += [(i - 1, j - 1, (sign * theta / 2) % 2) for i, j, sign in weighted]
    graph = tf.build_resource(variant)
    assert graph.edge_list() == sorted(expected)
    assert graph.vertex_count == variant.vertex_count == len(order) + 3
    assert tf.measurement_program(variant).vertices == [v - 1 for v in order]
    assert variant.measured_vertices == tuple(sorted(v - 1 for v in order))


# --- reference gate ---


def ccz_theta(theta: float) -> np.ndarray:
    """CCZ(theta) on (c1, c2, t): e^{i*theta} on |111> alone."""
    return np.diag([1] * 7 + [np.exp(1j * theta)]).astype(complex)


def test_target_unitary_at_pi():
    mat = tf.target_unitary(Fraction(1))
    np.testing.assert_allclose(
        mat, tf.toffoli_matrix() @ tf.hadamard_on_target(), atol=1e-12
    )
    np.testing.assert_allclose(
        mat, tf.hadamard_on_target() @ ccz_theta(np.pi), atol=1e-12
    )


@pytest.mark.parametrize("frac", [Fraction(1, 4), Fraction(1, 3), Fraction(2, 3)])
def test_target_unitary_general_theta(frac):
    mat = tf.target_unitary(frac)
    expected = tf.hadamard_on_target() @ ccz_theta(float(frac) * np.pi)
    np.testing.assert_allclose(mat, expected, atol=1e-12)


def test_encoded_target_is_exact_toffoli():
    np.testing.assert_allclose(
        tf.logical_target(tf.ResourceVariant("six")), tf.toffoli_matrix(), atol=1e-12
    )
    encoded = tf.logical_target(tf.ResourceVariant("six"))
    raw = tf.target_unitary(Fraction(1))
    np.testing.assert_allclose(encoded, raw @ tf.hadamard_on_target(), atol=1e-12)


def test_trivial_branch_reconstructs_the_raw_gate():
    # behind the H-basis encoding, the all-zero branch is the bare induced
    # circuit: H on the target followed by CCZ
    variant = tf.ResourceVariant("six")
    branch_op = reconstruct_operator(branch_map(variant, tf.NO_LINKING, {1: 0, 2: 0, 3: 0}), 3)
    raw = verify.unit_scale(branch_op @ tf.hadamard_on_target())
    assert verify.equal_up_to_phase(raw, tf.target_unitary(Fraction(1)), 1e-10)


# --- measurement programs ---


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"static": "Z"}, "static and when"),
        ({"when": ("c1",)}, "static and when"),
        ({"trigger": 2}, "trigger and conditional"),
        ({"conditional": "X"}, "trigger and conditional"),
    ],
    ids=["static-without-when", "when-without-static", "trigger-alone", "conditional-alone"],
)
def test_schedule_step_rejects_a_field_without_its_partner(fields, message):
    # Each such field was read by nothing: a spec mutant that changed it
    # passed every check.
    with pytest.raises(ValueError, match=message):
        tf.Step(3, **fields)
    tf.Step(3, static="Z", when=("c1",), trigger=2, conditional="X")



def test_six_program_plain_bases():
    pattern = tf.measurement_program(tf.ResourceVariant("six"))
    assert pattern.vertices == [1, 2, 3]
    for step in pattern.steps:
        assert step.basis.alpha == 0 and not step.basis.hadamard
        assert step.basis.absorbed is None


def test_six_program_absorbs_rz_for_sx_010():
    linking = tf.LinkingByproducts(sx=(0, 1, 0))
    pattern = tf.measurement_program(tf.ResourceVariant("six"), linking)
    absorbed = {s.vertex: s.basis.absorbed for s in pattern.steps}
    np.testing.assert_allclose(absorbed[1], qs.rz(-np.pi / 2), atol=1e-12)
    np.testing.assert_allclose(absorbed[3], qs.rz(np.pi / 2), atol=1e-12)
    assert absorbed[2] is None


def test_gadget_programs_measure_vertex_two_first():
    for kind in ("seven", "eight"):
        pattern = tf.measurement_program(tf.ResourceVariant(kind))
        assert pattern.vertices[0] == 2


def test_gadget_bases_adapt_on_first_outcome():
    for kind in ("seven", "eight"):
        pattern = tf.measurement_program(tf.ResourceVariant(kind))
        by_vertex = {s.vertex: s.basis for s in pattern.steps}
        plain4 = by_vertex[3]({2: 0})
        flipped4 = by_vertex[3]({2: 1})
        assert plain4.alpha == Fraction(1, 4) and plain4.absorbed is None
        np.testing.assert_allclose(flipped4.absorbed, qs.PAULI_X, atol=1e-15)
        plain7 = by_vertex[tf.GADGET_MID]({2: 0})
        flipped7 = by_vertex[tf.GADGET_MID]({2: 1})
        assert plain7.alpha == Fraction(-1, 4) and plain7.hadamard
        assert plain7.absorbed is None
        np.testing.assert_allclose(flipped7.absorbed, qs.PAULI_Z, atol=1e-15)
    top = by_vertex[tf.GADGET_TOP]
    assert top.alpha == Fraction(1, 4) and top.hadamard and top.absorbed is None
    # Eight-qubit, sx = (0,1,0): vertex 4 absorbs a static X, and outcome 1
    # on vertex 3 adds the adaptive X; their product, the identity, is
    # absorbed as computed.
    pattern = tf.measurement_program(tf.ResourceVariant("eight"), tf.LinkingByproducts((0, 1, 0)))
    by_vertex = {s.vertex: s.basis for s in pattern.steps}
    assert by_vertex[2].absorbed is None
    np.testing.assert_allclose(by_vertex[1].absorbed, qs.rz(-np.pi / 2), atol=1e-15)
    np.testing.assert_allclose(by_vertex[3]({2: 0}).absorbed, qs.PAULI_X, atol=1e-15)
    met = by_vertex[3]({2: 1}).absorbed
    assert met is not None
    np.testing.assert_array_equal(met, qs.PAULI_X @ qs.PAULI_X)
    assert by_vertex[tf.GADGET_MID]({2: 0}).absorbed is None
    np.testing.assert_allclose(by_vertex[tf.GADGET_MID]({2: 1}).absorbed, qs.PAULI_Z, atol=1e-15)
    assert by_vertex[tf.GADGET_TOP].absorbed is None


def step_parity(step, sx):
    return sum(bit for wire, bit in zip(tf.WIRES, sx) if wire in step.when) & 1


@pytest.mark.parametrize("theta", [Fraction(1), Fraction(1, 3)])
@pytest.mark.parametrize("kind", ["six", "seven", "eight"])
def test_programs_share_basis_objects_where_the_parities_agree(kind, theta):
    variant = tf.ResourceVariant(kind, theta)
    programs = {
        sx: tf.measurement_program(variant, tf.LinkingByproducts(sx)) for sx in accepted_sx(variant)
    }
    for a, b in itertools.combinations(accepted_sx(variant), 2):
        for step, in_a, in_b in zip(variant.spec.schedule, programs[a].steps, programs[b].steps):
            agree = step.static is None or step_parity(step, a) == step_parity(step, b)
            assert (in_a.basis is in_b.basis) == agree, (a, b, step.vertex)
    last = accepted_sx(variant)[-1]
    again = tf.measurement_program(variant, tf.LinkingByproducts(last, (1, 1, 1)))
    assert all(x.basis is y.basis for x, y in zip(again.steps, programs[last].steps))
    # Every shared basis is frozen and its absorbed correction read-only.
    for program in programs.values():
        for step, spec_step in zip(program.steps, variant.spec.schedule):
            bases = [step.basis]
            if callable(step.basis):
                bases = [step.basis({spec_step.trigger: bit}) for bit in (0, 1)]
            for basis in bases:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    basis.alpha = Fraction(0)
                if basis.absorbed is not None:
                    assert not basis.absorbed.flags.writeable
                    with pytest.raises(ValueError):
                        basis.absorbed[0, 0] = 0


@pytest.mark.parametrize("kind", ["six", "seven"])
@pytest.mark.parametrize("sx", [(0, 0, 1), (1, 0, 0), (1, 1, 0), (0, 1, 1)])
def test_unrecoverable_linking_rejected(kind, sx):
    with pytest.raises(tf.UnrecoverableLinkingError):
        tf.measurement_program(tf.ResourceVariant(kind), tf.LinkingByproducts(sx=sx))
    with pytest.raises(tf.UnrecoverableLinkingError):
        tf.predicted_sigma(
            tf.ResourceVariant(kind),
            {v: 0 for v in tf.ResourceVariant(kind).measured_vertices},
            tf.LinkingByproducts(sx=sx),
        )
    with pytest.raises(tf.UnrecoverableLinkingError):
        tf.branch_outputs(tf.ResourceVariant(kind), tf.LinkingByproducts(sx=sx), np.eye(8))


def test_eight_accepts_every_linking():
    variant = tf.ResourceVariant("eight")
    for sx in itertools.product((0, 1), repeat=3):
        tf.measurement_program(variant, tf.LinkingByproducts(sx=sx))


# --- predicted residuals ---


def test_sigma_identity_on_trivial_branch():
    sigma = tf.predicted_sigma(tf.ResourceVariant("six"), {1: 0, 2: 0, 3: 0})
    assert sigma.is_local
    np.testing.assert_allclose(frame_to_operator(sigma), np.eye(8), atol=1e-15)


def test_sigma_nonlocal_bracket_for_s3():
    sigma = tf.predicted_sigma(tf.ResourceVariant("six"), {1: 0, 2: 1, 3: 0})
    assert not sigma.is_local
    bracket = qs.kron_all(qs.ID2, qs.CNOT) @ qs.kron_all(qs.CZ, qs.ID2)
    np.testing.assert_allclose(sigma.nonlocal_factor, bracket, atol=1e-12)
    # the c2 wire carries Rz(-pi/2), i.e. canonical word Z.Rz(pi/2)
    np.testing.assert_allclose(
        sigma.words["c2"].matrix(), qs.rz(-np.pi / 2), atol=1e-12
    )


def test_sigma_seven_always_local_with_quarter_rotation():
    variant = tf.ResourceVariant("seven")
    for outcomes in all_outcomes(variant):
        sigma = tf.predicted_sigma(variant, outcomes)
        assert sigma.is_local
    base = tf.predicted_sigma(variant, {1: 0, 2: 0, 3: 0, tf.GADGET_MID: 0})
    np.testing.assert_allclose(base.words["c2"].matrix(), qs.rz(np.pi / 4), atol=1e-12)


def test_sigma_eight_has_quarter_on_c1():
    variant = tf.ResourceVariant("eight")
    outcomes = {v: 0 for v in variant.measured_vertices}
    sigma = tf.predicted_sigma(variant, outcomes)
    np.testing.assert_allclose(sigma.words["c1"].matrix(), qs.rz(-np.pi / 4), atol=1e-12)


# --- end-to-end gate runs ---


def test_toffoli_truth_table_on_basis_inputs():
    variant = tf.ResourceVariant("six")
    for index in range(8):
        run = tf.run_gate(variant, qs.basis_state(3, index))
        expected = 7 if index == 6 else (6 if index == 7 else index)
        amps = run.output.amplitudes
        assert abs(abs(amps[expected]) - 1) < 1e-10
        assert abs(run.probability - 0.125) < 1e-12
        assert run.success


def test_flipped_controls_do_nothing():
    variant = tf.ResourceVariant("six")
    run = tf.run_gate(variant, qs.basis_state(3, 0b010))
    assert abs(abs(run.output.amplitudes[0b010]) - 1) < 1e-10


@pytest.mark.parametrize("kind", ["six", "seven", "eight"])
def test_branch_equivalence_random_sample(kind):
    variant = tf.ResourceVariant(kind)
    tof = tf.toffoli_matrix()
    rng = np.random.default_rng(57)
    inputs = random_states(58, 2)
    for sx in accepted_sx(variant):
        sz = tuple(int(b) for b in rng.integers(0, 2, size=3))
        linking = tf.LinkingByproducts(sx=sx, sz=sz)
        for outcomes in all_outcomes(variant):
            mapping = branch_map(variant, linking, outcomes)
            sigma_op = frame_to_operator(tf.predicted_sigma(variant, outcomes, linking))
            expected_op = sigma_op @ tof
            for psi in inputs:
                out = mapping(psi)
                expected = expected_op @ psi.amplitudes
                overlap = abs(np.vdot(expected, out.amplitudes)) / (
                    np.linalg.norm(expected) * np.linalg.norm(out.amplitudes)
                )
                assert abs(overlap - 1) < 1e-10


# --- batched branch engine ---


def assert_engine_matches_reference(variant, linking):
    """Engine outputs equal the per-column path bit for bit, row i the outcomes spelling i."""
    psis = random_states(62, 2)
    inputs = np.vstack([np.eye(8)] + [psi.amplitudes for psi in psis])
    outputs = tf.branch_outputs(variant, linking, inputs)
    m = len(variant.measured_vertices)
    assert outputs.shape == (2**m, 8, 10) and outputs.flags.c_contiguous
    for outcomes, out in zip(all_outcomes(variant), outputs, strict=True):
        mapping = branch_map(variant, linking, outcomes)
        assert np.array_equal(out[:, :8], reconstruct_operator(mapping, 3))
        for column, psi in enumerate(psis, start=8):
            assert np.array_equal(out[:, column], mapping(psi).amplitudes)


@pytest.mark.parametrize("sz", [(0, 0, 0), (1, 0, 1)])
@pytest.mark.parametrize("kind", ["six", "seven", "eight"])
def test_branch_outputs_equal_reference_path(kind, sz):
    variant = tf.ResourceVariant(kind)
    for sx in accepted_sx(variant):
        assert_engine_matches_reference(variant, tf.LinkingByproducts(sx=sx, sz=sz))


def test_branch_outputs_equal_reference_path_off_grid():
    variant = tf.ResourceVariant("six", theta=Fraction(1, 3))
    for sx in accepted_sx(variant):
        assert_engine_matches_reference(variant, tf.LinkingByproducts(sx=sx))


@pytest.mark.parametrize("kind", ["six", "seven", "eight"])
def test_multi_case_branch_outputs_equal_separate_calls(monkeypatch, kind):
    # Every sz case of two sx in one call: one array per case, byte-identical
    # to the case's own call, and one walk for the whole call.
    variant = tf.ResourceVariant(kind)
    inputs = np.vstack([np.eye(8), signed_zero_inputs()[:2]])
    cases = [
        tf.LinkingByproducts(sx, sz)
        for sx in accepted_sx(variant)[:2]
        for sz in itertools.product((0, 1), repeat=3)
    ]
    walks = count_calls(monkeypatch, tf, "outcome_tree_leaves")
    joint = tf.branch_outputs(variant, cases, inputs)
    assert [tensor.shape[0] for _, tensor in walks] == [len(cases) * len(inputs)]
    assert isinstance(joint, list) and len(joint) == len(cases)
    for linking, outputs in zip(cases, joint):
        alone = tf.branch_outputs(variant, linking, inputs)
        assert outputs.shape == alone.shape and outputs.flags.c_contiguous
        assert outputs.tobytes() == alone.tobytes(), linking


@pytest.mark.parametrize("theta", [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
@pytest.mark.parametrize("kind", ["six", "seven", "eight"])
def test_mixed_sx_branch_outputs_equal_the_per_case_calls(monkeypatch, kind, theta):
    # Every accepted sx, interleaved with three sz, in one walk: each case's
    # outputs are byte-identical to its own call.
    variant = tf.ResourceVariant(kind, theta)
    inputs = np.vstack([np.eye(8), signed_zero_inputs()])
    cases = [
        tf.LinkingByproducts(sx, sz)
        for sz in ((0, 0, 0), (1, 0, 1), (0, 1, 1))
        for sx in reversed(accepted_sx(variant))
    ]
    walks = count_calls(monkeypatch, tf, "outcome_tree_leaves")
    joint = tf.branch_outputs(variant, cases, inputs)
    assert len(walks) == 1
    for linking, outputs in zip(cases, joint, strict=True):
        alone = tf.branch_outputs(variant, linking, inputs)
        assert outputs.tobytes() == alone.tobytes(), linking


def signed_zero_inputs():
    """Five seeded non-basis rows, with exact and negative zeros in both parts."""
    rows = np.vstack([psi.amplitudes for psi in random_states(68, 5)])
    rows[0, 2] = complex(-0.0, 0.0)
    rows[1, 5] = complex(0.0, -0.0)
    rows[2] = 0.0
    rows[2, 3], rows[2, 6] = complex(-0.0, -1.0), complex(0.6, -0.0)
    return rows


@pytest.mark.parametrize(
    "kind,theta",
    [
        ("six", Fraction(1)),
        ("seven", Fraction(1)),
        ("eight", Fraction(1)),
        ("six", Fraction(1, 3)),
    ],
)
def test_shared_embedding_equals_encoded_state(kind, theta):
    # The eight basis columns of all 64 linking cases, embedded in one build.
    variant = tf.ResourceVariant(kind, theta)
    rows = tf._encode_rows(variant, ALL_LINKING, np.eye(8, dtype=complex))
    for index, linking in enumerate(ALL_LINKING):
        for j in range(8):
            row = rows[8 * index + j]
            direct = tf.encoded_state(variant, qs.basis_state(3, j), linking).amplitudes
            assert np.array_equal(row, direct), (linking, j)
            # The negation rule keeps the signs of zeros as well.
            assert row.tobytes() == direct.tobytes(), (linking, j)


@pytest.mark.parametrize("theta", [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
@pytest.mark.parametrize("kind", ["six", "seven", "eight"])
def test_batched_embedding_equals_encoded_state_per_row(kind, theta):
    # One build for every row of all 64 linking cases, against one build per
    # row: the eight basis rows and five rows with signed zeros, compared
    # byte for byte, so the signs of zeros must match too.
    variant = tf.ResourceVariant(kind, theta)
    inputs = np.vstack([np.eye(8, dtype=complex), signed_zero_inputs()])
    rows = tf._encode_rows(variant, ALL_LINKING, inputs)
    assert rows.shape == (len(ALL_LINKING) * len(inputs), 1 << variant.vertex_count)
    for index, linking in enumerate(ALL_LINKING):
        for b, amps in enumerate(inputs):
            psi = qs.StateVector(3, amps)
            direct = tf.encoded_state(variant, psi, linking).amplitudes
            assert rows[index * len(inputs) + b].tobytes() == direct.tobytes(), (linking, b)
    # The per-row kernel path on eight cases: each sx once and each sz once.
    for index, linking in list(enumerate(ALL_LINKING))[::9]:
        for b, amps in enumerate(inputs):
            kernels = encoded_state_per_row(variant, qs.StateVector(3, amps), linking)
            assert rows[index * len(inputs) + b].tobytes() == kernels.amplitudes.tobytes()


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("kind", ["six", "seven", "eight"])
def test_each_walk_embeds_all_its_rows_in_one_build(monkeypatch, kind):
    variant = tf.ResourceVariant(kind)
    builds = count_calls(monkeypatch, tf, "_encode_rows")
    walks = count_calls(monkeypatch, tf, "outcome_tree_leaves")
    inputs = np.vstack([np.eye(8), signed_zero_inputs()[:1]])
    cases = [
        tf.LinkingByproducts(accepted_sx(variant)[-1], sz)
        for sz in itertools.product((0, 1), repeat=3)
    ]
    uniformity_rows = 1 + tf.UNIFORMITY_RANDOM_INPUTS
    calls = [
        (lambda: tf.branch_outputs(variant, cases[5], inputs), [cases[5]], len(inputs)),
        (lambda: tf.branch_outputs(variant, cases, inputs), cases, len(inputs)),
        (lambda: tf.verify_branch_uniformity(variant, cases[3]), [cases[3]], uniformity_rows),
        (lambda: tf.verify_branch_uniformity(variant, cases), cases, uniformity_rows),
    ]
    for call, expected_cases, row_count in calls:
        builds.clear()
        walks.clear()
        call()
        # One build, of every row of every case, and one walk of all of them.
        [(_, built_cases, rows)] = builds
        assert list(built_cases) == expected_cases
        assert rows.shape == (row_count, 8)
        assert [tensor.shape[0] for _, tensor in walks] == [len(expected_cases) * row_count]
    assert np.array_equal(rows[0], np.eye(8)[0])  # |000> leads the uniformity rows


def test_walks_reject_an_empty_case_list():
    variant = tf.ResourceVariant("six")
    with pytest.raises(ValueError, match="at least one linking case is needed"):
        tf.branch_outputs(variant, [], np.eye(8))
    with pytest.raises(ValueError, match="at least one linking case is needed"):
        tf.verify_branch_uniformity(variant, [])


@pytest.mark.parametrize(
    "kind,theta,rows", [("six", Fraction(1), [1]), ("seven", Fraction(1, 2), [1, 8])]
)
def test_run_gate_walks_basis_columns_only_off_table(monkeypatch, kind, theta, rows):
    walks = count_calls(monkeypatch, tf, "outcome_tree_leaves")
    tf.run_gate(tf.ResourceVariant(kind, theta), random_states(66, 1)[0])
    assert [tensor.shape[0] for _, tensor in walks] == rows


def test_branch_outputs_rejects_bad_input_shape():
    with pytest.raises(ValueError):
        tf.branch_outputs(tf.ResourceVariant("six"), tf.NO_LINKING, np.eye(4))


def test_branch_outputs_rejects_empty_batch():
    with pytest.raises(ValueError, match="empty batch"):
        tf.branch_outputs(tf.ResourceVariant("six"), tf.NO_LINKING, np.zeros((0, 8)))
    with pytest.raises(ValueError, match=r"shape \(B, 8\), got \(0, 4\)"):
        tf.branch_outputs(tf.ResourceVariant("six"), tf.NO_LINKING, np.zeros((0, 4)))


def test_success_flag_matches_schmidt_classification():
    variant = tf.ResourceVariant("six")
    rng = np.random.default_rng(59)
    psi = random_states(60, 1)[0]
    for outcomes in all_outcomes(variant):
        run = tf.run_gate(variant, psi, outcomes=outcomes)
        verdict = verify.is_local(frame_to_operator(run.sigma))
        assert run.success == verdict.is_local == (outcomes[2] == 0)


def test_sz_bits_never_change_classification():
    variant = tf.ResourceVariant("six")
    for sz in itertools.product((0, 1), repeat=3):
        linking = tf.LinkingByproducts(sz=sz)
        for outcomes in all_outcomes(variant):
            sigma = tf.predicted_sigma(variant, outcomes, linking)
            assert sigma.is_local == (outcomes[2] == 0)


# --- sign bookkeeping of the induced circuit ---


@pytest.mark.parametrize("sx", accepted_sx(tf.ResourceVariant("six")))
def test_induced_circuit_keeps_middle_phase_opposite(sx):
    gates = tf.induced_circuit(sx)
    weighted = [g for g in gates if g.name == "cz_theta"]
    assert len(weighted) == 3
    first, second, third = (g.angle for g in weighted)
    assert (first + second) % 2 == 0  # opposite signs mod 2pi
    assert first == third


def test_induced_circuit_unrecoverable_patterns_break_the_structure():
    for sx in [(0, 0, 1), (1, 0, 0), (1, 1, 0), (0, 1, 1)]:
        weighted = [g for g in tf.induced_circuit(sx) if g.name == "cz_theta"]
        first, _, third = (g.angle for g in weighted)
        assert first != third


# --- success probabilities ---


@pytest.mark.parametrize(
    "kind,model,expected",
    [
        ("six", "none", Fraction(1, 2)),
        ("six", "uniform", Fraction(1, 4)),
        ("seven", "none", Fraction(1)),
        ("seven", "uniform", Fraction(1, 2)),
        ("eight", "none", Fraction(1)),
        ("eight", "uniform", Fraction(1)),
    ],
)
def test_success_probabilities_exact(kind, model, expected):
    report = tf.success_probability(tf.ResourceVariant(kind), model)
    assert report.p_success == expected
    assert report.uniformity_checked
    assert report.max_uniformity_error < 1e-10


@pytest.mark.parametrize("model", ["none", "uniform"])
@pytest.mark.parametrize(
    "kind,theta",
    [(kind, Fraction(1)) for kind in tf.VARIANT_KINDS]
    + [("six", Fraction(1, 2)), ("six", Fraction(3, 2))],
)
def test_success_counts_the_local_predicted_frames(kind, theta, model):
    variant = tf.ResourceVariant(kind, theta)
    report = tf.success_probability(variant, model, check_uniformity=False)
    assert [case.local_branches for case in report.cases] == local_branch_counts(variant, model)


@pytest.mark.parametrize("model", ["none", "uniform"])
@pytest.mark.parametrize(
    "kind,theta",
    [("six", Fraction(1, 3)), ("six", Fraction(1, 4))]
    + [(kind, Fraction(theta)) for kind in ("seven", "eight") for theta in ("1/2", "-1", "3")],
)
def test_success_raises_what_the_first_missing_frame_raises(kind, theta, model):
    variant = tf.ResourceVariant(kind, theta)
    with pytest.raises(ValueError) as expected:
        local_branch_counts(variant, model)
    with pytest.raises(ValueError) as got:
        tf.success_probability(variant, model, check_uniformity=False)
    assert type(got.value) is type(expected.value) is tf.FrameUnavailable
    assert str(got.value) == str(expected.value)


def test_success_probability_composes_no_frame(monkeypatch):
    # success_probability counts the table's local mask: it builds no frame,
    # no operator matrix and no non-local factor.
    frames_built = count_calls(monkeypatch, tf, "ByproductOperator")
    matrices = [count_calls(monkeypatch, tf.LinkingFrames, "operators")]
    matrices.append(count_calls(monkeypatch, tf, "frame_to_operator"))
    factors = count_calls(monkeypatch, tf, "_nonlocal_factor")
    for theta in (Fraction(1), Fraction(1, 2), Fraction(3, 2)):
        tf.success_probability(tf.ResourceVariant("six", theta), "uniform")
    assert frames_built == [] and matrices == [[], []] and factors == []
    # The non-local factor is built for non-local frames alone, once per call.
    frames = tf.LinkingFrames(tf.ResourceVariant("six"))
    frames({1: 0, 2: 0, 3: 0})
    frames.operators([0b101])
    assert factors == []
    frames({1: 0, 2: 1, 3: 0})
    frames.operators()
    assert len(factors) == 2


def test_branch_probabilities_uniform():
    for kind in ("six", "seven", "eight"):
        err = tf.verify_branch_uniformity(tf.ResourceVariant(kind))
        assert err < 1e-10


def test_uniformity_inputs_are_the_seeded_draws_written_out():
    # The literals stand in for the seeded generator: every bit must match
    # its draw, or max_uniformity_error in the reports would change.
    rows = tf.UNIFORMITY_INPUTS
    assert rows.shape == (1 + tf.UNIFORMITY_RANDOM_INPUTS, 8) and rows.dtype == np.complex128
    assert not rows.flags.writeable
    assert rows.tobytes() == np.stack([psi.amplitudes for psi in uniformity_draws()]).tobytes()


@pytest.mark.parametrize(
    "kind,theta",
    [
        ("six", Fraction(1)),
        ("seven", Fraction(1)),
        ("eight", Fraction(1)),
        ("six", Fraction(1, 2)),
        ("six", Fraction(3, 2)),
    ],
)
def test_branch_uniformity_bitwise_equals_enumeration(kind, theta):
    # The batched walk must reproduce the per-input enumeration exactly:
    # norms taken from rows in any other qubit order differ in the last bits.
    # The sz probes of one sx share one walk, which must give the maximum of
    # the separate walks, and success_probability reports the maximum of all.
    variant = tf.ResourceVariant(kind, theta)
    inputs = np.vstack([np.eye(8)[:1]] + [psi.amplitudes for psi in random_states(67, 2)])
    worst = []
    for sx in accepted_sx(variant):
        cases = [tf.LinkingByproducts(sx, sz) for sz in ((0, 0, 0), (1, 1, 1))]
        separate = [uniformity_by_enumeration(variant, linking) for linking in cases]
        for linking, expected in zip(cases, separate):
            assert tf.verify_branch_uniformity(variant, linking).hex() == expected.hex(), linking
        assert tf.verify_branch_uniformity(variant, cases).hex() == max(separate).hex(), sx
        worst += separate
    # Each case's rows in a walk of every sx carry the bits of its own walk.
    probes = ((0, 0, 0), (1, 1, 1))
    cases = [tf.LinkingByproducts(sx, sz) for sx in accepted_sx(variant) for sz in probes]
    _, _, shared = tf._outcome_leaves(variant, cases, inputs)
    for index, linking in enumerate(cases):
        rows = slice(index * len(inputs), (index + 1) * len(inputs))
        _, _, alone = tf._outcome_leaves(variant, [linking], inputs)
        assert shared[:, rows].tobytes() == alone.tobytes(), linking
    report = tf.success_probability(variant, "uniform")
    assert report.max_uniformity_error.hex() == max(worst).hex()


def test_success_walks_the_sz_probes_of_each_sx_once(monkeypatch):
    walks = count_calls(monkeypatch, tf, "outcome_tree_leaves")
    variant = tf.ResourceVariant("eight")
    tf.success_probability(variant, "uniform")
    # Two sz probes of three inputs each for every accepted sx, in one walk.
    [(patterns, tensor)] = walks
    assert tensor.shape[0] == 6 * len(accepted_sx(variant))
    programs = [
        tf.measurement_program(variant, tf.LinkingByproducts(sx, sz))
        for sx in accepted_sx(variant)
        for sz in ((0, 0, 0), (1, 1, 1))
    ]
    assert [[id(s.basis) for s in p.steps] for p in patterns] == [
        [id(s.basis) for s in p.steps] for p in programs
    ]


def test_success_embeds_every_uniformity_probe_in_one_build(monkeypatch):
    builds = count_calls(monkeypatch, tf, "_encode_rows")
    variant = tf.ResourceVariant("eight")
    tf.success_probability(variant, "uniform")
    # Every accepted sx with both sz probes, in the order the report lists sx.
    [(_, cases, rows)] = builds
    probes = [(0, 0, 0), (1, 1, 1)]
    assert cases == [tf.LinkingByproducts(sx, sz) for sx in accepted_sx(variant) for sz in probes]
    assert rows.shape == (1 + tf.UNIFORMITY_RANDOM_INPUTS, 8) and not rows.flags.writeable


@pytest.mark.parametrize(
    "kind,theta",
    [("six", Fraction(1)), ("seven", Fraction(1)), ("eight", Fraction(1)), ("six", Fraction(1, 2))],
)
def test_uniformity_batch_may_mix_sx(monkeypatch, kind, theta):
    # Cases of every accepted sx, interleaved, in one call: exactly the
    # maximum of one call per sx, from one build and one walk.
    variant = tf.ResourceVariant(kind, theta)
    probes = [(1, 1, 1), (0, 1, 0), (0, 0, 0)]
    per_sx = {
        sx: tf.verify_branch_uniformity(variant, [tf.LinkingByproducts(sx, sz) for sz in probes])
        for sx in accepted_sx(variant)
    }
    mixed = [tf.LinkingByproducts(sx, sz) for sz in probes for sx in reversed(accepted_sx(variant))]
    builds = count_calls(monkeypatch, tf, "_encode_rows")
    walks = count_calls(monkeypatch, tf, "outcome_tree_leaves")
    assert tf.verify_branch_uniformity(variant, mixed).hex() == max(per_sx.values()).hex()
    assert len(builds) == 1 and len(walks) == 1
    with pytest.raises(ValueError, match="at least one linking case is needed"):
        tf.verify_branch_uniformity(variant, [])


@pytest.mark.parametrize("model", ["none", "uniform"])
@pytest.mark.parametrize(
    "kind,theta",
    [(kind, Fraction(1)) for kind in tf.VARIANT_KINDS]
    + [("six", Fraction(1, 2)), ("six", Fraction(3, 2))],
)
def test_local_branches_equal_the_per_sz_recount(kind, theta, model):
    # success_probability classifies each sx once; the table's verdicts,
    # recounted for every sz case, must give the same numbers.
    variant = tf.ResourceVariant(kind, theta)
    report = tf.success_probability(variant, model, check_uniformity=False)
    sz_cases = list(itertools.product((0, 1), repeat=3)) if model == "uniform" else [(0, 0, 0)]
    branches = list(all_outcomes(variant))
    for case in report.cases:
        recount = 0
        if case.recoverable:
            for sz in sz_cases:
                frames = tf.LinkingFrames(variant, tf.LinkingByproducts(case.sx, sz))
                recount += sum(frames(outcomes).is_local for outcomes in branches)
        assert case.local_branches == recount, case.sx
        assert case.total_branches == len(branches) * len(sz_cases)


# --- the CCZ(theta) family ---


@pytest.mark.parametrize("frac", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])
def test_ccz_theta_local_branches(frac):
    variant = tf.ResourceVariant("six", theta=frac)
    raw_target = tf.hadamard_on_target() @ ccz_theta(float(frac) * np.pi)
    for s2, s4 in itertools.product((0, 1), repeat=2):
        outcomes = {1: s2, 2: 0, 3: s4}
        branch_op = reconstruct_operator(branch_map(variant, tf.NO_LINKING, outcomes), 3)
        sigma = tf.predicted_sigma(variant, outcomes)
        assert sigma.is_local
        expected = frame_to_operator(sigma) @ raw_target @ tf.hadamard_on_target()
        assert verify.equal_up_to_phase(
            verify.unit_scale(branch_op), verify.unit_scale(expected), 1e-10
        )


def test_ccz_theta_off_grid_s3_frame_unavailable():
    variant = tf.ResourceVariant("six", theta=Fraction(1, 3))
    with pytest.raises(ValueError):
        tf.predicted_sigma(variant, {1: 0, 2: 1, 3: 0})
    rng = np.random.default_rng(61)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = qs.StateVector(3, amps / np.linalg.norm(amps))
    run = tf.run_gate(variant, psi, outcomes={1: 0, 2: 1, 3: 0})
    assert run.sigma is None and not run.success


@pytest.mark.parametrize(
    "kind,theta,outcomes,covered",
    [
        ("six", Fraction(1, 3), {1: 0, 2: 1, 3: 0}, "multiple of pi/2"),
        ("six", Fraction(1, 4), {1: 1, 2: 1, 3: 1}, "multiple of pi/2"),
        ("seven", Fraction(1, 2), {1: 0, 2: 0, 3: 0, 6: 0}, "theta = pi only"),
        # theta = -pi and 3pi give CCZ(pi) too, but the half weights differ
        ("seven", Fraction(3), {1: 0, 2: 0, 3: 0, 6: 0}, "theta = pi only"),
        ("eight", Fraction(-1), {1: 0, 2: 0, 3: 0, 6: 0, 7: 0}, "theta = pi only"),
    ],
)
def test_frame_unavailable_names_the_covered_angles(kind, theta, outcomes, covered):
    variant = tf.ResourceVariant(kind, theta)
    with pytest.raises(tf.FrameUnavailable, match=covered) as err:
        tf.predicted_sigma(variant, outcomes)
    assert "instead" not in str(err.value)
    with pytest.raises(tf.FrameUnavailable):
        tf.success_probability(variant, check_uniformity=False)


def test_six_linking_prefactor_frame_unavailable_off_grid():
    variant = tf.ResourceVariant("six", Fraction(1, 3))
    linking = tf.LinkingByproducts(sx=(0, 1, 0))
    with pytest.raises(tf.FrameUnavailable, match="linking corrections"):
        tf.predicted_sigma(variant, {1: 0, 2: 0, 3: 0}, linking)


def test_frame_equality_compares_the_nonlocal_factor():
    frames = tf.LinkingFrames(tf.ResourceVariant("six"))
    local = {1: 0, 2: 0, 3: 0}
    nonlocal_ = {1: 0, 2: 1, 3: 0}
    assert frames(local) == frames(local)
    assert frames(local) != frames({1: 1, 2: 0, 3: 0})
    assert frames(nonlocal_) == frames(nonlocal_)
    assert frames(nonlocal_) != frames(local)
    sigma = frames(nonlocal_)
    flipped = mbqc.ByproductOperator(
        sigma.wires,
        dict(sigma.words),
        -sigma.nonlocal_factor,
        sigma.nonlocal_label,
        sigma.global_phase,
    )
    assert sigma != flipped


def frame_bits(sigma):
    factor = None if sigma.is_local else sigma.nonlocal_factor.tobytes()
    return sigma.words, complex(sigma.global_phase), sigma.nonlocal_label, factor


@pytest.mark.parametrize(
    "kind,theta,sx,sz",
    [
        ("six", Fraction(1, 2), (1, 1, 1), (1, 0, 1)),
        ("seven", Fraction(1), (0, 1, 0), (0, 1, 1)),
        ("eight", Fraction(1), (0, 1, 1), (1, 1, 0)),
    ],
)
def test_linking_frames_share_nothing_between_branches(kind, theta, sx, sz):
    # One frame function serves every branch of a linking case; reusing it,
    # in either order, must give the frames of independent single calls.
    variant = tf.ResourceVariant(kind, theta)
    linking = tf.LinkingByproducts(sx, sz)
    branches = list(all_outcomes(variant))
    frames = tf.LinkingFrames(variant, linking)
    forward = [frame_bits(frames(outcomes)) for outcomes in branches]
    backward = [frame_bits(frames(outcomes)) for outcomes in reversed(branches)][::-1]
    single = [frame_bits(tf.predicted_sigma(variant, outcomes, linking)) for outcomes in branches]
    assert forward == backward == single


FRAME_TABLE_CASES = [
    (kind, theta)
    for kind in tf.VARIANT_KINDS
    for theta in (Fraction(1), Fraction(1, 2), Fraction(3, 2))
] + [("six", Fraction(1, 3)), ("six", Fraction(1, 4))]


@pytest.mark.parametrize("kind,theta", FRAME_TABLE_CASES)
def test_frame_table_equals_the_composed_frames(kind, theta):
    # On every row the table covers, the stack and each frame equal the
    # per-branch frame_compose composition byte for byte, whether the rows
    # come as indices or as a mask; elsewhere each row raises what that
    # composition raises.
    variant = tf.ResourceVariant(kind, theta)
    branches = list(all_outcomes(variant))
    for sx, sz in itertools.product(accepted_sx(variant), itertools.product((0, 1), repeat=3)):
        linking = tf.LinkingByproducts(sx, sz)
        frames = tf.LinkingFrames(variant, linking)
        covered, expected = [], []
        for row, outcomes in enumerate(branches):
            try:
                frame = composed_frame(variant, outcomes, linking)
            except tf.FrameUnavailable as exc:
                with pytest.raises(tf.FrameUnavailable) as got:
                    frames(outcomes)
                assert str(got.value) == str(exc)
                continue
            covered.append(row)
            expected.append(frame)
            assert frame_bits(frames(outcomes)) == frame_bits(frame), (linking, outcomes)
        stack = np.array([frame_to_operator(frame) for frame in expected]).reshape(-1, 8, 8)
        mask = np.isin(np.arange(len(branches)), covered)
        for rows in (covered, np.array(covered, dtype=np.intp), mask):
            assert frames.operators(rows).tobytes() == stack.tobytes(), linking
            assert frames.local_mask(rows).tolist() == [frame.is_local for frame in expected]
        if len(covered) == len(branches):
            assert frames.operators().tobytes() == stack.tobytes(), linking


def first_error(calls):
    """The class and message of the first call that raises, or None."""
    for call in calls:
        try:
            call()
        except ValueError as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "kind,theta,sx",
    [
        ("six", Fraction(1, 3), (0, 0, 0)),
        ("six", Fraction(1, 3), (0, 1, 0)),
        ("six", Fraction(1, 4), (1, 1, 1)),
        ("six", Fraction(1), (1, 0, 1)),
        ("seven", Fraction(1, 2), (0, 0, 0)),
        ("eight", Fraction(-1), (0, 1, 1)),
    ],
)
def test_frame_table_raises_what_the_first_branch_raises(kind, theta, sx):
    variant = tf.ResourceVariant(kind, theta)
    linking = tf.LinkingByproducts(sx, (1, 0, 1))
    frames = tf.LinkingFrames(variant, linking)
    branches = list(all_outcomes(variant))
    rows = list(range(len(branches)))
    nonlocal_rows = [row for row in rows if branches[row].get(variant.spec.nonlocal_vertex)]
    orders = [
        rows,
        rows[::-1],
        rows[len(rows) // 2 :],
        rows[1:2] + rows,
        rows[-1:] + rows[:1],
        nonlocal_rows + rows,
        [],
    ]
    # A boolean mask gives its rows in ascending order.
    masks = [np.arange(len(rows)) % 2 == 1, np.arange(len(rows)) >= len(rows) // 2]
    cases = [(order, order) for order in orders]
    cases += [(np.flatnonzero(mask).tolist(), mask) for mask in masks]
    for order, given in cases:
        alone = (lambda r=r: composed_frame(variant, branches[r], linking) for r in order)
        expected = first_error(alone)
        for batched in (frames.operators, frames.local_mask):
            assert first_error([lambda: batched(given)]) == expected, (batched.__name__, order)
    # Without rows the table takes every row in order.
    for batched in (frames.operators, frames.local_mask):
        assert first_error([batched]) == first_error([lambda: batched(rows)])


def test_frame_table_takes_rows_not_outcome_dicts():
    frames = tf.LinkingFrames(tf.ResourceVariant("six"))
    for batched in (frames.operators, frames.local_mask):
        with pytest.raises(IndexError):
            batched([{1: 0, 2: 0, 3: 0}])
    assert frames.operators([]).shape == (0, 8, 8) and frames.local_mask([]).shape == (0,)


def outcome_readers(variant, outcomes):
    """Every reader of one outcome dict; each must raise ``mbqc.outcome_row``'s error."""
    return [
        lambda: mbqc.outcome_row(variant.measured_vertices, outcomes),
        lambda: tf.LinkingFrames(variant)(outcomes),
        lambda: tf.predicted_sigma(variant, outcomes),
        lambda: tf.run_gate(variant, qs.basis_state(3, 0), outcomes=outcomes),
    ]


@pytest.mark.parametrize(
    "kind,outcomes,vertex",
    [
        ("six", {1: 2, 2: 0, 3: 0}, 1),
        ("six", {1: 0, 2: 2, 3: 0}, 2),
        ("six", {1: 0, 2: 0, 3: -1}, 3),
        ("eight", {1: 0, 2: 0, 3: 0, 6: 1, 7: 3}, 7),
    ],
)
def test_frame_table_rejects_outcomes_other_than_0_or_1(kind, outcomes, vertex):
    # Never a missing frame, even at a theta whose frames are not tabulated.
    message = f"outcome for vertex {vertex} must be 0 or 1"
    for theta in (Fraction(1), Fraction(1, 3)):
        for call in outcome_readers(tf.ResourceVariant(kind, theta), outcomes):
            with pytest.raises(ValueError, match=message) as err:
                call()
            assert not isinstance(err.value, tf.FrameUnavailable)


@pytest.mark.parametrize(
    "kind,outcomes,vertices",
    [
        ("six", {1: 0, 2: 0}, "[1, 2, 3]"),
        ("six", {1: 0, 2: 0, 3: 0, 4: 0}, "[1, 2, 3]"),
        ("six", {1: 2, 2: 0, 4: 0}, "[1, 2, 3]"),
        ("seven", {1: 0, 2: 0, 3: 0}, "[1, 2, 3, 6]"),
    ],
)
def test_outcome_dicts_must_cover_exactly_the_measured_vertices(kind, outcomes, vertices):
    message = f"outcomes must cover exactly vertices {vertices}"
    for theta in (Fraction(1), Fraction(1, 3)):
        for call in outcome_readers(tf.ResourceVariant(kind, theta), outcomes):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message


def test_linking_frames_raise_per_branch_in_single_call_order():
    linking = tf.LinkingByproducts((0, 1, 0))
    six = tf.LinkingFrames(tf.ResourceVariant("six", Fraction(1, 3)), linking)
    seven = tf.LinkingFrames(tf.ResourceVariant("seven", Fraction(1, 2)))
    # The classifier applies the same checks to the same rows.
    for check in (six, lambda outcomes: six.local_mask([mbqc.outcome_row((1, 2, 3), outcomes)])):
        with pytest.raises(tf.FrameUnavailable, match="s3 = 1"):
            check({1: 0, 2: 1, 3: 0})
        with pytest.raises(tf.FrameUnavailable, match="linking corrections"):
            check({1: 0, 2: 0, 3: 0})
    with pytest.raises(ValueError, match="outcomes must cover") as err:
        seven({1: 0, 2: 0, 3: 0})
    assert not isinstance(err.value, tf.FrameUnavailable)
    with pytest.raises(tf.FrameUnavailable, match="theta = pi only"):
        seven({1: 0, 2: 0, 3: 0, tf.GADGET_MID: 0})
    with pytest.raises(tf.FrameUnavailable, match="theta = pi only"):
        seven.local_mask([0])
    with pytest.raises(tf.UnrecoverableLinkingError):
        tf.LinkingFrames(tf.ResourceVariant("seven"), tf.LinkingByproducts((0, 0, 1)))


def test_run_gate_falls_back_only_for_frame_unavailable(monkeypatch):
    def broken(*args):
        raise ValueError("not a missing table entry")

    monkeypatch.setattr(tf, "predicted_sigma", broken)
    psi = random_states(64, 1)[0]
    with pytest.raises(ValueError, match="not a missing table entry"):
        tf.run_gate(tf.ResourceVariant("six"), psi)


@pytest.mark.parametrize(
    "outcomes,message",
    [
        ({1: 0, 2: 0}, "cover exactly"),
        ({1: 0, 2: 0, 3: 0, 4: 0}, "cover exactly"),
        ({1: 0, 2: 2, 3: 0}, "vertex 2 must be 0 or 1"),
    ],
)
def test_run_gate_rejects_bad_outcomes(outcomes, message):
    with pytest.raises(ValueError, match=message):
        tf.run_gate(tf.ResourceVariant("six"), qs.basis_state(3, 0), outcomes=outcomes)


SIX_FRAME_DEFECT = (
    "six-qubit frame table disagrees with simulation for sx in {010, 101} "
    "at theta = pi/2 and 3pi/2 (FOUND line on the six-qubit frame table in CHANGES.md)"
)


@pytest.mark.parametrize(
    "sx",
    [
        (0, 0, 0),
        (1, 1, 1),
        pytest.param((0, 1, 0), marks=pytest.mark.xfail(strict=True, reason=SIX_FRAME_DEFECT)),
        pytest.param((1, 0, 1), marks=pytest.mark.xfail(strict=True, reason=SIX_FRAME_DEFECT)),
    ],
)
@pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(3, 2)])
def test_six_frame_table_matches_simulation_off_pi(theta, sx):
    variant = tf.ResourceVariant("six", theta)
    target = tf.logical_target(variant)
    for sz in itertools.product((0, 1), repeat=3):
        linking = tf.LinkingByproducts(sx=sx, sz=sz)
        operators = tf.branch_outputs(variant, linking, np.eye(8))
        for outcomes, branch_op in zip(all_outcomes(variant), operators, strict=True):
            predicted = frame_to_operator(tf.predicted_sigma(variant, outcomes, linking)) @ target
            assert verify.equal_up_to_phase(
                verify.unit_scale(branch_op), verify.unit_scale(predicted), 1e-10
            ), (sz, outcomes)


def test_branch_walks_leave_no_reference_cycles():
    # A cycle would keep every branch array alive until a full collection.
    variant = tf.ResourceVariant("seven")
    state = tf.encoded_state(variant, qs.basis_state(3, 0))
    pattern = tf.measurement_program(variant)
    gc.disable()
    try:
        gc.collect()
        mbqc.enumerate_branches(state, pattern)
        assert gc.collect() == 0
        tf.branch_outputs(variant, tf.NO_LINKING, np.eye(8))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "kind,theta",
    [
        ("seven", Fraction(1, 2)),
        ("eight", Fraction(1, 2)),
        ("six", Fraction(1, 3)),
        ("seven", Fraction(-1)),
        ("eight", Fraction(3)),
    ],
)
def test_off_grid_runs_classified_by_extracted_residual(kind, theta):
    # Where no frame table applies, the verdict comes from the simulated
    # branch: every gadget branch is local at pi/2, while the six-qubit
    # s3 = 1 branches stay entangling.
    variant = tf.ResourceVariant(kind, theta)
    psi = random_states(63, 1)[0]
    for outcomes in all_outcomes(variant):
        run = tf.run_gate(variant, psi, outcomes=outcomes)
        tabulated = kind == "six" and outcomes[2] == 0
        assert (run.sigma is not None) == tabulated
        assert run.success == (kind != "six" or outcomes[2] == 0)


def test_variant_validation():
    with pytest.raises(ValueError):
        tf.ResourceVariant("nine")
    with pytest.raises(ValueError):
        tf.ResourceVariant("six", theta=0.5)  # floats lose exactness
    with pytest.raises(ValueError):
        tf.ResourceVariant("six", theta=Fraction(0))
    with pytest.raises(ValueError, match="theta: expected a finite number"):
        tf.ResourceVariant("six", theta=Fraction(10**400, 3))  # radians overflow a float


def test_linking_byproducts_are_stored_as_tuples():
    # A list once built and then failed in LinkingFrames: unhashable type.
    linking = tf.LinkingByproducts(sx=[0, 1, 0], sz=[1, 0, 0])
    assert (linking.sx, linking.sz) == ((0, 1, 0), (1, 0, 0))
    assert linking == tf.LinkingByproducts((0, 1, 0), (1, 0, 0))
    frames = tf.LinkingFrames(tf.ResourceVariant("six"), linking)
    assert frames.local_mask().shape == (8,)


@pytest.mark.parametrize(
    "name,bits",
    [
        ("sx", (0, 1.0, 0)),
        ("sz", (True, 0, 0)),
        ("sx", (0, 2, 0)),
        ("sz", (0, 1)),
        ("sx", "010"),
        ("sz", 5),
    ],
    ids=["float", "bool", "two", "short", "str", "int"],
)
def test_linking_byproducts_reject_bits_that_are_not_int_zero_or_one(name, bits):
    # (0, 1.0, 0) passed the ``in (0, 1)`` test and failed at ``^`` later.
    with pytest.raises(ValueError) as err:
        tf.LinkingByproducts(**{name: bits})
    assert str(err.value) == f"{name} must be three bits, each the int 0 or 1, got {bits!r}"


@pytest.mark.parametrize("part", ["x", "z"])
def test_spec_rejects_a_sigma_word_that_its_nonlocal_word_replaces(part):
    # On six's non-local rows the c2 word is nonlocal_words["c2"], and on its
    # local rows the bit of vertex 2 is 0, so either toggle changed nothing.
    six = tf.VARIANT_SPECS["six"]
    word = dataclasses.replace(six.sigma["c2"], **{part: (six.nonlocal_vertex,)})
    with pytest.raises(ValueError, match=r"sigma\['c2'\] reads nonlocal_vertex 2"):
        dataclasses.replace(six, sigma={**six.sigma, "c2": word})
    with pytest.raises(ValueError, match="nonlocal_vertex and nonlocal_words come together"):
        dataclasses.replace(six, nonlocal_words={})


def test_nonlocal_rows_read_the_nonlocal_word_from_the_spec(monkeypatch):
    # Without linking, a non-local row's c2 word is nonlocal_words["c2"] with
    # k in units of theta/2: Rz(-theta/2) for six, k = -1 at theta = pi/2.
    variant = tf.ResourceVariant("six", Fraction(1, 2))
    outcomes = {1: 0, 2: 1, 3: 0}
    assert tf.predicted_sigma(variant, outcomes).words["c2"] == mbqc.make_word(k=-1)
    six = tf.VARIANT_SPECS["six"]
    monkeypatch.setitem(tf.VARIANT_SPECS, "six", dataclasses.replace(six, nonlocal_words={"c2": (1, 0, 3)}))
    assert tf.predicted_sigma(variant, outcomes).words["c2"] == mbqc.make_word(1, 0, 3)
