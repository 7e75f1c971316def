import itertools
from fractions import Fraction

import numpy as np
import pytest

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


# --- reference gate ---


def test_target_unitary_at_pi():
    mat = tf.target_unitary(Fraction(1))
    np.testing.assert_allclose(
        mat, tf.toffoli_matrix() @ tf.hadamard_on_target(), atol=1e-12
    )
    np.testing.assert_allclose(
        mat, tf.hadamard_on_target() @ tf.ccz_theta_matrix(np.pi), atol=1e-12
    )


@pytest.mark.parametrize("frac", [Fraction(1, 4), Fraction(1, 3), Fraction(2, 3)])
def test_target_unitary_general_theta(frac):
    mat = tf.target_unitary(frac)
    expected = tf.hadamard_on_target() @ tf.ccz_theta_matrix(float(frac) * np.pi)
    np.testing.assert_allclose(mat, expected, atol=1e-12)


def test_encoded_target_is_exact_toffoli():
    np.testing.assert_allclose(
        tf.logical_target(tf.ResourceVariant("six")), tf.toffoli_matrix(), atol=1e-12
    )
    raw = tf.logical_target(tf.ResourceVariant("six"), hadamard_encode=False)
    np.testing.assert_allclose(raw, tf.target_unitary(Fraction(1)), atol=1e-12)


def test_trivial_branch_reconstructs_the_raw_gate():
    # without the H-basis encoding, the all-zero branch is the bare induced
    # circuit: H on the target followed by CCZ
    variant = tf.ResourceVariant("six")
    branch_op = qs.reconstruct_operator(
        tf.branch_map(variant, tf.NO_LINKING, {1: 0, 2: 0, 3: 0}, hadamard_encode=False),
        3,
    )
    assert verify.equal_up_to_phase(
        verify.unit_scale(branch_op), tf.target_unitary(Fraction(1)), 1e-10
    )


# --- measurement programs ---


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
    pattern = tf.measurement_program(tf.ResourceVariant("seven"))
    by_vertex = {s.vertex: s.basis for s in pattern.steps}
    plain4 = by_vertex[3]({2: 0})
    flipped4 = by_vertex[3]({2: 1})
    assert plain4.alpha == Fraction(1, 4) and plain4.absorbed is None
    np.testing.assert_allclose(flipped4.absorbed, qs.PAULI_X, atol=1e-15)
    plain7 = by_vertex[tf.GADGET_MID]({2: 0})
    flipped7 = by_vertex[tf.GADGET_MID]({2: 1})
    assert plain7.alpha == Fraction(-1, 4) and plain7.hadamard
    np.testing.assert_allclose(flipped7.absorbed, qs.PAULI_Z, atol=1e-15)


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
    sx_cases = (
        list(itertools.product((0, 1), repeat=3))
        if kind == "eight"
        else sorted(tf.RECOVERABLE_LINKING)
    )
    for sx in sx_cases:
        sz = tuple(int(b) for b in rng.integers(0, 2, size=3))
        linking = tf.LinkingByproducts(sx=sx, sz=sz)
        for outcomes in all_outcomes(variant):
            mapping = tf.branch_map(variant, linking, outcomes)
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


def assert_engine_matches_reference(variant, linking, hadamard_encode=True):
    """Engine outputs equal the per-column path bit for bit."""
    psis = random_states(62, 2)
    inputs = np.vstack([np.eye(8)] + [psi.amplitudes for psi in psis])
    outputs = tf.branch_outputs(variant, linking, inputs, hadamard_encode)
    m = len(variant.measured_vertices)
    assert list(outputs) == list(itertools.product((0, 1), repeat=m))
    for bits, out in outputs.items():
        mapping = tf.branch_map(
            variant, linking, dict(zip(variant.measured_vertices, bits)), hadamard_encode
        )
        assert out.shape == (8, 10)
        assert np.array_equal(out[:, :8], qs.reconstruct_operator(mapping, 3))
        for column, psi in enumerate(psis, start=8):
            assert np.array_equal(out[:, column], mapping(psi).amplitudes)


@pytest.mark.parametrize("sz", [(0, 0, 0), (1, 0, 1)])
@pytest.mark.parametrize("kind", ["six", "seven", "eight"])
def test_branch_outputs_equal_reference_path(kind, sz):
    variant = tf.ResourceVariant(kind)
    sx_cases = (
        list(itertools.product((0, 1), repeat=3))
        if kind == "eight"
        else sorted(tf.RECOVERABLE_LINKING)
    )
    for sx in sx_cases:
        assert_engine_matches_reference(variant, tf.LinkingByproducts(sx=sx, sz=sz))


@pytest.mark.parametrize("hadamard_encode", [True, False])
def test_branch_outputs_equal_reference_path_off_grid(hadamard_encode):
    variant = tf.ResourceVariant("six", theta=Fraction(1, 3))
    for sx in sorted(tf.RECOVERABLE_LINKING):
        assert_engine_matches_reference(variant, tf.LinkingByproducts(sx=sx), hadamard_encode)


def test_branch_outputs_rejects_bad_input_shape():
    with pytest.raises(ValueError):
        tf.branch_outputs(tf.ResourceVariant("six"), tf.NO_LINKING, np.eye(4))


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


@pytest.mark.parametrize("sx", sorted(tf.RECOVERABLE_LINKING))
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


def test_branch_probabilities_uniform():
    for kind in ("six", "seven", "eight"):
        err = tf.verify_branch_uniformity(tf.ResourceVariant(kind))
        assert err < 1e-10


# --- the CCZ(theta) family ---


@pytest.mark.parametrize("frac", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])
def test_ccz_theta_local_branches(frac):
    variant = tf.ResourceVariant("six", theta=frac)
    raw_target = tf.hadamard_on_target() @ tf.ccz_theta_matrix(float(frac) * np.pi)
    for s2, s4 in itertools.product((0, 1), repeat=2):
        outcomes = {1: s2, 2: 0, 3: s4}
        branch_op = qs.reconstruct_operator(
            tf.branch_map(variant, tf.NO_LINKING, outcomes, hadamard_encode=False), 3
        )
        sigma = tf.predicted_sigma(variant, outcomes)
        assert sigma.is_local
        expected = frame_to_operator(sigma) @ raw_target
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
    "kind,theta",
    [("seven", Fraction(1, 2)), ("eight", Fraction(1, 2)), ("six", Fraction(1, 3))],
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
