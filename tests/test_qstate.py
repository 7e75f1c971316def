import itertools
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from reference import apply_cz_theta_mask, apply_operator_moveaxis

from wgtoffoli import mbqc
from wgtoffoli import qstate as qs
from wgtoffoli import toffoli as tf


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return qs.StateVector(n, amps / np.linalg.norm(amps))


def test_plus_state_amplitudes():
    for n in (1, 2, 6):
        state = qs.plus_state(n)
        np.testing.assert_allclose(state.amplitudes, np.full(2**n, 2 ** (-n / 2)))
        assert abs(state.norm_sq - 1) < 1e-12


@pytest.mark.parametrize("n", [0, 13, -1])
def test_plus_state_range(n):
    with pytest.raises(ValueError):
        qs.plus_state(n)


def test_apply_single_hadamard():
    out = qs.apply_operator(qs.basis_state(1, 0), (0,), qs.HADAMARD)
    np.testing.assert_allclose(out.amplitudes, qs.KET_PLUS, atol=1e-15)


def test_apply_single_rz_phase():
    # diag(1, e^{-i a}) on |1> for a = pi/2 gives amplitude -i
    out = qs.apply_operator(qs.basis_state(1, 1), (0,), qs.rz(-np.pi / 2))
    np.testing.assert_allclose(out.amplitudes, [0, -1j], atol=1e-15)


def test_apply_single_x_fixes_plus():
    plus = qs.plus_state(1)
    out = qs.apply_operator(plus, (0,), qs.PAULI_X)
    np.testing.assert_allclose(out.amplitudes, plus.amplitudes, atol=1e-15)


def test_qubit_zero_is_least_significant():
    # X on qubit 0 of a 2-qubit register maps |00> to |01> (index 1)
    out = qs.apply_operator(qs.basis_state(2, 0), (0,), qs.PAULI_X)
    np.testing.assert_allclose(out.amplitudes, [0, 1, 0, 0], atol=1e-15)


@pytest.mark.parametrize(
    "theta,expected",
    [(np.pi, -1), (np.pi / 2, 1j)],
)
def test_cz_theta_on_11(theta, expected):
    out = qs.apply_cz_theta(qs.basis_state(2, 3), 0, 1, theta)
    np.testing.assert_allclose(out.amplitudes[3], expected, atol=1e-15)


def test_cz_theta_on_plus_plus():
    theta = 0.7231
    out = qs.apply_cz_theta(qs.plus_state(2), 0, 1, theta)
    np.testing.assert_allclose(
        out.amplitudes, np.array([1, 1, 1, np.exp(1j * theta)]) / 2, atol=1e-15
    )


def test_cz_theta_symmetry_and_composition():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = qs.StateVector(3, amps / np.linalg.norm(amps))
    a, b = 0.311, 1.62
    left = qs.apply_cz_theta(qs.apply_cz_theta(state, 0, 2, a), 2, 0, b)
    right = qs.apply_cz_theta(state, 0, 2, a + b)
    np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-12)


def test_cz_theta_matches_mask_form_bytes():
    rng = np.random.default_rng(23)
    for n in range(2, 13):
        state = random_state(rng, n)
        for a, b in itertools.permutations(range(n), 2):
            for theta in (np.pi, np.pi / 2, -np.pi / 3, 0.7):
                out = qs.apply_cz_theta(state, a, b, theta).amplitudes
                expected = apply_cz_theta_mask(state, a, b, theta).amplitudes
                assert out.tobytes() == expected.tobytes()


def test_kron_all_matches_reduce_kron_bytes():
    rng = np.random.default_rng(29)
    kets = [qs.KET_PLUS, qs.KET_ZERO, qs.KET_MINUS] + [
        random_state(rng, 1).amplitudes for _ in range(9)
    ]
    matrices = [qs.HADAMARD, qs.rz(0.3), rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))]
    for factors in (kets, matrices, [qs.CNOT, qs.PAULI_X], [qs.CZ, qs.ID2], [qs.ID2, qs.CNOT]):
        assert qs.kron_all(*factors).tobytes() == reduce(np.kron, factors).tobytes()
        assert qs.kron_all(*factors).shape == reduce(np.kron, factors).shape


def test_cz_theta_rejects_equal_qubits():
    with pytest.raises(ValueError):
        qs.apply_cz_theta(qs.plus_state(2), 1, 1, np.pi)


def test_project_plus_factor():
    state = qs.StateVector(2, np.kron(np.array([0.6, 0.8]), qs.KET_PLUS))
    out = qs.project(state, 0, qs.KET_PLUS)
    np.testing.assert_allclose(out.amplitudes, [0.6, 0.8], atol=1e-15)
    assert abs(out.norm_sq - 1) < 1e-12


def test_project_orthogonal_gives_zero():
    out = qs.project(qs.basis_state(1, 0), 0, qs.KET_ONE)
    assert out.num_qubits == 0
    assert out.norm_sq == 0


def test_project_two_qubit_graph_state():
    # (|0+> + |1->)/sqrt(2): project qubit 0 onto |0> leaves |+>/sqrt(2)
    amps = np.array([0.5, 0.5, 0.5, -0.5])
    out = qs.project(qs.StateVector(2, amps), 0, qs.KET_ZERO)
    np.testing.assert_allclose(out.amplitudes, qs.KET_PLUS / np.sqrt(2), atol=1e-15)
    assert abs(out.norm_sq - 0.5) < 1e-12


def test_project_completeness():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = qs.StateVector(4, amps)
    total = sum(qs.project(state, 2, ket).norm_sq for ket in (qs.KET_PLUS, qs.KET_MINUS))
    assert abs(total - state.norm_sq) < 1e-12


def scalar_projection(tensor, axis, kets):
    """The projection a lone register gets: scalar bras on contiguous halves."""
    t0, t1 = np.take(tensor, 0, axis=axis), np.take(tensor, 1, axis=axis)
    return [np.conj(ket[0]) * t0 + np.conj(ket[1]) * t1 for ket in kets]


def test_broadcast_projection_equals_the_scalar_projection_of_each_register():
    # A (nodes, blocks, 2, 2) stack mixing five bases against every
    # (node, block) projected alone, on every qubit axis.
    rng = np.random.default_rng(20261022)
    bases = [(0.3, False), (Fraction(1, 4), True), (2.1, False), (Fraction(-1, 3), False), (0, True)]
    stack = np.stack([mbqc.basis_states(mbqc.MeasurementBasis(*basis)) for basis in bases])
    index = rng.integers(0, len(bases), size=(4, 3))
    index[0] = [0, 1, 2]  # every basis shows up
    index[1, :2] = [3, 4]
    shape = (4, 3, 2) + (2,) * 4  # (node, block, row) + qubits
    tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    tensor[0, 1, 0, 1] = complex(-0.0, 0.0)  # signed zeros keep their bits
    tensor[2, 2, 1, :, 1] = complex(0.0, -0.0)
    tensor[3, 0] = complex(-0.0, -0.0)
    for axis in range(3, tensor.ndim):
        projected = qs.project_axis(tensor, axis, stack[index])
        assert [out.shape for out in projected] == [shape[:axis] + shape[axis + 1 :]] * 2
        for node, block in np.ndindex(index.shape):
            kets = stack[index[node, block]]
            alone = scalar_projection(tensor[node, block], axis - 2, kets)
            fixed = qs.project_axis(tensor[node, block], axis - 2, kets)
            for out, ref, one in zip(projected, alone, fixed):
                assert out[node, block].tobytes() == ref.tobytes() == one.tobytes()


def test_projection_kets_must_fit_the_tensor():
    tensor = np.ones((3, 2, 2), dtype=complex)
    with pytest.raises(ValueError, match="stack over the axes before 1"):
        qs.project_axis(tensor, 1, np.ones((3, 2, 2, 2)) / np.sqrt(2))
    with pytest.raises(ValueError, match="stack"):
        qs.project_axis(tensor, 1, np.ones((2, 3)))
    # project checks the one ket it is given; a walk's kets are unit by construction.
    with pytest.raises(ValueError, match="projection ket must be normalised"):
        qs.project(qs.plus_state(2), 0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="projection ket must be normalised"):
        qs.project(qs.plus_state(2), 0, np.array([np.nan, 0.0]))


def test_unitaries_preserve_norm():
    rng = np.random.default_rng(5)
    state = qs.plus_state(4)
    for _ in range(20):
        mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        unitary, _ = np.linalg.qr(mat)
        state = qs.apply_operator(state, (int(rng.integers(4)),), unitary)
        state = qs.apply_cz_theta(state, 0, 3, float(rng.uniform(0, 6)))
    assert abs(state.norm_sq - 1) < 1e-12


def test_apply_operator_target_order():
    # CNOT with targets (control, target): control is the matrix MSB
    state = qs.basis_state(2, 2)  # qubit 1 set
    out = qs.apply_operator(state, (1, 0), qs.CNOT)
    np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_apply_operator_bitwise_equals_moveaxis_reference():
    rng = np.random.default_rng(37)
    for n in range(1, 6):
        state = random_state(rng, n)
        for k in range(1, min(3, n) + 1):
            matrix = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
            for targets in itertools.permutations(range(n), k):
                out = qs.apply_operator(state, targets, matrix).amplitudes
                expected = apply_operator_moveaxis(state, targets, matrix).amplitudes
                assert out.tobytes() == expected.tobytes()
    # The batch kernel on a (B,) + (2,)*n stack, as given and as a strided
    # view: each register gets the bits of its own call and of the reference.
    for n in range(1, 13):
        rows = np.stack([random_state(rng, n).amplitudes for _ in range(3)])
        rows[1, ::3] = complex(-0.0, 0.0)
        rows[1, 1::3] = complex(0.0, -0.0)
        wide = np.zeros((6, 1 << n), dtype=complex)
        wide[::2] = rows
        stacks = [rows.reshape((3,) + (2,) * n), wide[::2].reshape((3,) + (2,) * n)]
        assert not stacks[1].flags.c_contiguous
        if n <= 4:
            choices = [t for k in (1, 2, 3) for t in itertools.permutations(range(n), k)]
        else:
            picks = [rng.permutation(n)[:k] for k in (1, 2, 3) for _ in range(4)]
            choices = [tuple(int(q) for q in pick) for pick in picks]
        for targets in choices:
            k = len(targets)
            matrix = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
            matrix[0, -1] = 0.0
            for stack in stacks:
                out = qs.apply_matrix(stack, n, targets, matrix)
                assert out.shape == stack.shape
                for row, register in zip(rows, out):
                    state = qs.StateVector(n, row)
                    alone = qs.apply_operator(state, targets, matrix).amplitudes
                    expected = apply_operator_moveaxis(state, targets, matrix).amplitudes
                    assert register.tobytes() == alone.tobytes() == expected.tobytes(), targets


def test_reorder_qubits_permutation():
    state = qs.basis_state(3, 0b101)  # qubit0=1, qubit1=0, qubit2=1
    out = qs.reorder_qubits(state, (1, 0, 2))  # new qubit0 = old qubit1
    assert np.argmax(np.abs(out.amplitudes)) == 0b110


def test_reconstruct_hadamard():
    op = qs.reconstruct_operator(lambda s: qs.apply_operator(s, (0,), qs.HADAMARD), 1)
    np.testing.assert_allclose(op, qs.HADAMARD, atol=1e-15)


def test_reconstruct_cz():
    op = qs.reconstruct_operator(lambda s: qs.apply_cz_theta(s, 0, 1, np.pi), 2)
    np.testing.assert_allclose(op, np.diag([1, 1, 1, -1]), atol=1e-15)


def test_x_propagation_identity():
    # CZ(theta) (X x I) = (X x Rz(theta)) CZ(-theta) as 4x4 matrices
    rng = np.random.default_rng(17)
    for theta in rng.uniform(0, 2 * np.pi, size=20):
        lhs = np.diag([1, 1, 1, np.exp(1j * theta)]) @ np.kron(qs.PAULI_X, qs.ID2)
        rhs = np.kron(qs.PAULI_X, qs.rz(theta)) @ np.diag([1, 1, 1, np.exp(-1j * theta)])
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


# --- batched squared norms ---

NORM_LENGTHS = list(range(1, 65)) + [96, 127, 255, 256, 511, 1000, 1024, 2047, 4096]


def vdot_norms(rows):
    """``np.vdot(row, row).real`` of each contiguous row: the per-row reference."""
    return np.array([np.vdot(row, row).real for row in np.ascontiguousarray(rows)])


def assert_bitwise(got, expected):
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", NORM_LENGTHS)
def test_norms_sq_bitwise_equals_vdot_per_row(d):
    rng = np.random.default_rng(d)
    rows = rng.normal(size=(6, d)) + 1j * rng.normal(size=(6, d))
    rows *= np.exp(4 * rng.normal(size=(6, 1)))  # spread the magnitudes
    assert_bitwise(qs.norms_sq(rows), vdot_norms(rows))


@pytest.mark.parametrize("d", [1, 7, 8, 64, 1000])
def test_norms_sq_of_strided_and_broadcast_rows(d):
    rng = np.random.default_rng(100 + d)
    big = rng.normal(size=(10, 2 * d)) + 1j * rng.normal(size=(10, 2 * d))
    # Every other row, and the first d columns: each row stays contiguous,
    # so np.vdot of the view itself is the reference.
    for view in (big[::2, :d], big[1::3, d:]):
        assert_bitwise(qs.norms_sq(view), np.array([np.vdot(row, row).real for row in view]))
    # Every other element, and a transpose: the norm is the contiguous row's.
    for view in (big[:, ::2], big[:d].T):
        assert_bitwise(qs.norms_sq(view), vdot_norms(view))
    row = big[0, :d]
    assert_bitwise(qs.norms_sq(np.broadcast_to(row, (4, d))), np.full(4, np.vdot(row, row).real))


def test_norms_sq_of_zero_rows_and_signed_zeros():
    rows = np.zeros((6, 8), dtype=complex)
    rows[1] = complex(-0.0, -0.0)
    rows[2, ::2] = complex(-0.0, 0.0)
    rows[3, 1::2] = complex(0.0, -0.0)
    rows[4] = complex(-0.0, 0.5)
    rows[5, 3] = complex(-1.5, -0.0)
    norms = qs.norms_sq(rows)
    assert_bitwise(norms, vdot_norms(rows))
    assert not np.signbit(norms).any()
    assert qs.norms_sq(np.zeros((0, 8))).shape == (0,)


@pytest.mark.parametrize("kind", ["six", "seven", "eight"])
def test_norms_sq_bitwise_on_every_leaf_of_a_walk(kind):
    # The eight basis columns of one linking case, through one walk.
    # The walk returns the embedded rows' norms, not the rows themselves.
    variant, linking = tf.ResourceVariant(kind), tf.LinkingByproducts((1, 1, 1), (1, 0, 1))
    initial, _, leaves = tf._outcome_leaves(variant, [linking], np.eye(8))
    rows = leaves.reshape(-1, 8)
    assert_bitwise(qs.norms_sq(rows), vdot_norms(rows))
    assert_bitwise(initial, vdot_norms(tf._encode_rows(variant, [linking], np.eye(8))))


def test_norms_sq_rejects_a_non_matrix():
    with pytest.raises(ValueError, match=r"\(B, d\)"):
        qs.norms_sq(np.ones(8))
