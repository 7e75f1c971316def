import warnings

import numpy as np
import pytest
import reference

from wgtoffoli import qstate as qs
from wgtoffoli import verify


def test_equal_up_to_phase_trivial_cases():
    eye = np.eye(4)
    assert verify.equal_up_to_phase(eye, -eye)
    assert verify.equal_up_to_phase(eye, 1j * eye)
    assert not verify.equal_up_to_phase(eye, np.diag([1, 1, 1, -1]))


def test_equal_up_to_phase_relation_properties():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = np.exp(0.77j) * a
    c = np.exp(-1.2j) * b
    assert verify.equal_up_to_phase(a, a, tol=0)  # reflexive
    assert verify.equal_up_to_phase(b, a) and verify.equal_up_to_phase(a, b)
    assert verify.equal_up_to_phase(a, c)  # transitive through b


def test_equal_up_to_phase_rejects_zero_target():
    with pytest.raises(ValueError):
        verify.equal_up_to_phase(np.eye(2), np.zeros((2, 2)))


def test_is_local_tensor_product():
    op = qs.kron_all(qs.PAULI_Z, qs.rz(np.pi / 4), qs.PAULI_X)
    verdict = verify.is_local(op)
    assert verdict.is_local
    for values in verdict.schmidt_singular_values:
        assert values[1] <= 1e-12 * values[0]


def test_is_local_detects_cnot():
    op = qs.kron_all(qs.ID2, qs.CNOT)  # CNOT between the two lower wires
    verdict = verify.is_local(op)
    assert not verdict.is_local
    # the cut separating the untouched wire is still rank one
    assert verdict.schmidt_singular_values[0][1] <= 1e-12


def test_process_fidelity_identity_vs_toffoli():
    from wgtoffoli.toffoli import toffoli_matrix

    assert abs(verify.process_fidelity(np.eye(8), np.eye(8)) - 1) < 1e-12
    # trace of the Toffoli is 6, so the fidelity with the identity is (6/8)^2
    got = verify.process_fidelity(np.eye(8), toffoli_matrix())
    assert abs(got - 0.5625) < 1e-12


def test_process_fidelity_warns_on_nonunitary():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verify.process_fidelity(np.ones((2, 2)), np.eye(2))
    assert any("not unitary" in str(w.message) for w in caught)


def test_unit_scale_restores_unitary_norm():
    scaled = 0.125 * np.eye(8)
    rescaled = verify.unit_scale(scaled)
    assert abs(np.vdot(rescaled, rescaled).real - 8) < 1e-12


# --- stacks ---


def seeded_stack(seed, count):
    """Scaled unitaries, half of them tensor products, in a seeded order."""
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(count, 8, 8)) + 1j * rng.normal(size=(count, 8, 8))
    unitaries, _ = np.linalg.qr(mats)
    singles = rng.normal(size=(count, 3, 2, 2)) + 1j * rng.normal(size=(count, 3, 2, 2))
    wires, _ = np.linalg.qr(singles)
    for index in range(0, count, 2):
        unitaries[index] = qs.kron_all(*wires[index])
    return unitaries * rng.uniform(0.1, 3.0, size=(count, 1, 1))


@pytest.mark.parametrize("count", [1, 7])
def test_stacked_calls_equal_matrix_calls_byte_for_byte(count):
    ops = seeded_stack(40 + count, count)
    target = qs.kron_all(qs.ID2, qs.CNOT)
    scaled = verify.unit_scale(ops)
    assert scaled.shape == ops.shape
    verdict = verify.is_local(ops)
    equal = verify.equal_up_to_phase(scaled, np.exp(0.3j) * scaled)
    fidelities = verify.process_fidelity(scaled, target)
    assert verdict.is_local.shape == equal.shape == fidelities.shape == (count,)
    for index, op in enumerate(ops):
        # Each member has the bits of its own 2-D call and of the per-matrix formula.
        single = verify.unit_scale(op)
        assert scaled[index].tobytes() == single.tobytes() == reference.unit_scale(op).tobytes()
        alone = verify.is_local(op)
        assert alone.is_local is bool(verdict.is_local[index]) is (index % 2 == 0)
        for wire in range(3):
            values = verdict.schmidt_singular_values[wire][index]
            assert values.tobytes() == alone.schmidt_singular_values[wire].tobytes()
            assert values.tobytes() == reference.schmidt_values(op, wire).tobytes()
        assert verify.equal_up_to_phase(single, np.exp(0.3j) * single) is bool(equal[index])
        fidelity = verify.process_fidelity(single, target)
        assert isinstance(fidelity, float)
        assert float(fidelities[index]).hex() == fidelity.hex()
        assert fidelity.hex() == reference.process_fidelity(single, target).hex()


def test_stacked_equality_tests_each_member():
    ops = verify.unit_scale(seeded_stack(50, 4))
    other = ops * np.exp(1j * np.arange(4))[:, None, None]
    other[2] = ops[3]
    assert verify.equal_up_to_phase(ops, other).tolist() == [True, True, False, True]
    # One-axis operands are one member, as before stacks.
    assert verify.equal_up_to_phase(ops[0, :, 0], -ops[0, :, 0]) is True
    with pytest.raises(ValueError, match="shape mismatch"):
        verify.equal_up_to_phase(ops, ops[:, :4])
    with pytest.raises(ValueError, match=r"identically zero \(stack index 1\)"):
        verify.equal_up_to_phase(ops[:2], np.stack([ops[0], np.zeros((8, 8))]))


def test_process_fidelity_warns_on_a_non_unitary_member():
    ops = verify.unit_scale(seeded_stack(51, 3))
    ops[1] = np.ones((8, 8)) / 8
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fidelities = verify.process_fidelity(ops, np.eye(8))
    messages = [str(w.message) for w in caught]
    assert messages == ["first operator (stack index 1) is not unitary; fidelity may be meaningless"]
    assert fidelities.shape == (3,)


def test_process_fidelity_checks_a_one_matrix_operand_once():
    # A one-matrix operand is checked once, not once per member of the
    # other operand's stack, and its warning names no stack index.
    ops = verify.unit_scale(seeded_stack(53, 3))
    for args, name in (((ops, 2 * np.eye(8)), "second"), ((2 * np.eye(8), ops), "first")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fidelities = verify.process_fidelity(*args)
        messages = [str(w.message) for w in caught]
        assert messages == [f"{name} operator is not unitary; fidelity may be meaningless"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            singles = [verify.process_fidelity(*(op if a is ops else a for a in args)) for op in ops]
        assert [f.hex() for f in fidelities] == [f.hex() for f in singles]


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_is_local_rejects_zero_and_non_finite_operators(bad):
    ops = seeded_stack(52, 3)
    if bad == 0.0:
        ops[2] = 0.0
        match = r"zero operator .* \(stack index 2\)"
    else:
        ops[2, 4, 1] = bad
        match = r"non-finite entry \(stack index 2\)"
    with pytest.raises(ValueError, match=match):
        verify.is_local(ops)
    # A single matrix is the stack of one.
    with pytest.raises(ValueError, match=match.replace("2", "0")):
        verify.is_local(ops[2])


def test_unit_scale_names_the_zero_member():
    ops = seeded_stack(53, 3)
    ops[1] = 0.0
    with pytest.raises(ValueError, match=r"zero operator \(stack index 1\)"):
        verify.unit_scale(ops)
