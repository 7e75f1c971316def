"""Dense state-vector engine for registers of up to 12 qubits.

Conventions used across the package:

* Amplitude ``i`` of an ``n``-qubit register is the coefficient of the
  basis state whose qubit ``k`` equals bit ``k`` of ``i``; qubit 0 is the
  least significant bit.
* ``rz(a)`` is ``diag(1, exp(1j*a))``.
* States produced by projection are left unnormalised; ``norm_sq`` then
  carries the accumulated branch probability.

Multi-qubit matrices index their rows with ``targets[0]`` as the most
significant bit.

Three batch kernels do the array work: ``project_axis`` (projection),
``_phase_both_set`` (controlled phase) and ``apply_matrix`` (a matrix on
some qubits). Each takes a tensor whose last axes are the qubits, qubit 0
last, and lets any leading batch axes pass through, so every register of
a batch gets the bits it would get alone. ``apply_operator``,
``apply_cz_theta`` and ``project`` are their calls on a batch of one
``StateVector``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

MAX_QUBITS = 12

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

KET_ZERO = np.array([1, 0], dtype=complex)
KET_ONE = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / math.sqrt(2)

CZ = np.diag([1, 1, 1, -1]).astype(complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def rz(alpha: float) -> np.ndarray:
    """Phase rotation diag(1, e^{i*alpha}) about the z axis."""
    return np.array([[1, 0], [0, np.exp(1j * alpha)]], dtype=complex)


def kron_all(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product; the first factor addresses the most significant bits.

    Each factor costs one broadcast multiply over interleaved axes and a
    reshape. That is the product ``np.kron`` forms, without its per-call
    axis bookkeeping, so the bytes equal ``reduce(np.kron, factors)``.
    """
    out = np.asarray(factors[0])
    for factor in factors[1:]:
        factor = np.asarray(factor)
        ndim = max(out.ndim, factor.ndim)
        left = (1,) * (ndim - out.ndim) + out.shape
        right = (1,) * (ndim - factor.ndim) + factor.shape
        out = out.reshape([d for s in left for d in (s, 1)]) * factor.reshape(
            [d for s in right for d in (1, s)]
        )
        out = out.reshape([a * b for a, b in zip(left, right)])
    return out


@dataclass
class StateVector:
    """Complex amplitudes over ``2**num_qubits`` basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, "
                f"got shape {self.amplitudes.shape}"
            )

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def normalized(self) -> "StateVector":
        n = self.norm_sq
        if n == 0:
            raise ValueError("cannot normalise the zero vector")
        return StateVector(self.num_qubits, self.amplitudes / math.sqrt(n))


def norms_sq(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a ``(B, d)`` array, as a ``(B,)`` float array.

    One stacked matmul of each conjugated row with the row, over a
    contiguous copy. numpy hands each ``(1, d) @ (d, 1)`` product to
    BLAS's complex dot, the kernel that ``np.vdot`` calls with its
    conjugating flag, so entry i is bitwise equal to
    ``np.vdot(row, row).real`` of the contiguous row i; tier-1 tests pin
    that identity. ``np.vdot`` on a strided view takes BLAS's strided
    loop, whose bits can differ; the copy keeps the result independent of
    the layout.
    """
    rows = np.ascontiguousarray(rows, dtype=complex)
    if rows.ndim != 2:
        raise ValueError(f"expected a (B, d) array of rows, got shape {rows.shape}")
    return np.matmul(rows.conj()[:, None, :], rows[:, :, None])[:, 0, 0].real


def plus_state(num_qubits: int) -> StateVector:
    """All qubits in (|0> + |1>)/sqrt(2)."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"qubit count {num_qubits} outside 1..{MAX_QUBITS}")
    dim = 1 << num_qubits
    return StateVector(num_qubits, np.full(dim, dim ** -0.5, dtype=complex))


def basis_state(num_qubits: int, index: int) -> StateVector:
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range")
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def from_amplitudes(amplitudes: Sequence[complex]) -> StateVector:
    amps = np.asarray(amplitudes, dtype=complex)
    n = int(round(math.log2(amps.size)))
    if 1 << n != amps.size:
        raise ValueError(f"amplitude count {amps.size} is not a power of two")
    return StateVector(n, amps.copy())


def _check_qubit(state: StateVector, qubit: int):
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.num_qubits} qubits")


def apply_single(state: StateVector, qubit: int, matrix: np.ndarray) -> StateVector:
    """Apply a 2x2 matrix to one qubit."""
    return apply_operator(state, (qubit,), matrix)


def apply_operator(
    state: StateVector, targets: Sequence[int], matrix: np.ndarray
) -> StateVector:
    """Apply a ``2**k x 2**k`` matrix to ``k`` target qubits.

    ``targets[0]`` addresses the most significant bit of the matrix index.
    This is ``apply_matrix`` on the register's ``(2,)*n`` tensor.
    """
    n = state.num_qubits
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError(f"duplicate targets in {targets}")
    for q in targets:
        _check_qubit(state, q)
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {matrix.shape} does not fit {k} qubits")
    tensor = apply_matrix(state.amplitudes.reshape((2,) * n), n, targets, matrix)
    return StateVector(n, tensor.reshape(-1))


def apply_matrix(
    tensor: np.ndarray, num_qubits: int, targets: Sequence[int], matrix: np.ndarray
) -> np.ndarray:
    """``matrix`` on qubits ``targets`` of each register of ``tensor``, as a new array.

    The last ``num_qubits`` axes are the qubits. One ``transpose`` moves
    the target axes in front of the other qubit axes, the view
    ``np.moveaxis`` builds, and the product is written through the same
    view of a C-ordered output. Without batch axes the ``matmul`` is one
    2-D product, with them one 2-D product of the same shape per register,
    so each register gets the bits of a call on it alone.
    """
    shape = tensor.shape
    ndim, k = len(shape), len(targets)
    lead = ndim - num_qubits
    order = [ndim - 1 - q for q in targets]
    order += [axis for axis in range(lead, ndim) if axis not in order]
    if lead:
        order[:0] = range(lead)
    moved = tensor.transpose(order).reshape(shape[:lead] + (1 << k, 1 << (num_qubits - k)))
    out = np.empty(shape, dtype=complex)
    out.transpose(order)[...] = (matrix @ moved).reshape(shape)
    return out


def apply_cz_theta(
    state: StateVector, qubit_a: int, qubit_b: int, theta: float
) -> StateVector:
    """Controlled phase: multiply amplitudes with both bits set by e^{i*theta}."""
    if qubit_a == qubit_b:
        raise ValueError("controlled phase needs two distinct qubits")
    _check_qubit(state, qubit_a)
    _check_qubit(state, qubit_b)
    n = state.num_qubits
    amps = state.amplitudes.copy()
    _phase_both_set(amps.reshape((2,) * n), qubit_a, qubit_b, np.exp(1j * theta))
    return StateVector(n, amps)


def _phase_both_set(tensor: np.ndarray, qubit_a: int, qubit_b: int, phase: complex) -> None:
    """Multiply, in place, the entries of ``tensor`` with both qubits set by ``phase``.

    The last axes of ``tensor`` are the qubits, qubit 0 last, so any
    leading batch axes pass through: one strided multiply covers a batch.
    """
    both_set = [slice(None)] * tensor.ndim
    both_set[-1 - qubit_a] = both_set[-1 - qubit_b] = 1
    tensor[tuple(both_set)] *= phase


def project_axis(tensor: np.ndarray, axis: int, kets) -> list[np.ndarray]:
    """Contract one length-2 axis of ``tensor`` with each ``<ket|`` of ``kets``.

    Returns one tensor per ket, without the axis. Every projection in the
    package goes through here, so a branch has the same bits whichever
    walk produced it.
    """
    t0 = np.take(tensor, 0, axis=axis)
    t1 = np.take(tensor, 1, axis=axis)
    out = []
    for ket in kets:
        ket = np.asarray(ket, dtype=complex)
        if ket.shape != (2,):
            raise ValueError("projection ket must be a single-qubit state")
        if not abs(np.vdot(ket, ket).real - 1.0) <= 1e-10:  # NaN fails too
            raise ValueError("projection ket must be normalised")
        out.append(np.conj(ket[0]) * t0 + np.conj(ket[1]) * t1)
    return out


def project(state: StateVector, qubit: int, ket: np.ndarray) -> StateVector:
    """Project one qubit onto ``ket`` and drop it from the register.

    The result is not renormalised: its ``norm_sq`` equals the outcome
    probability times the input ``norm_sq``. Remaining qubits keep their
    relative order (those above ``qubit`` shift down by one).
    """
    _check_qubit(state, qubit)
    n = state.num_qubits
    [out] = project_axis(state.amplitudes.reshape((2,) * n), n - 1 - qubit, [ket])
    return StateVector(n - 1, out.reshape(-1))


def reorder_qubits(state: StateVector, new_to_old: Sequence[int]) -> StateVector:
    """Relabel qubits so that output qubit ``i`` is input qubit ``new_to_old[i]``."""
    n = state.num_qubits
    if sorted(new_to_old) != list(range(n)):
        raise ValueError(f"{new_to_old} is not a permutation of 0..{n - 1}")
    tensor = state.amplitudes.reshape((2,) * n)
    axes = [n - 1 - new_to_old[n - 1 - j] for j in range(n)]
    return StateVector(n, np.transpose(tensor, axes).reshape(-1))


def reconstruct_operator(
    circuit: Callable[[StateVector], StateVector], num_qubits: int
) -> np.ndarray:
    """Matrix of a linear map: column ``j`` is ``circuit`` applied to basis ``j``."""
    dim = 1 << num_qubits
    columns = []
    for j in range(dim):
        out = circuit(basis_state(num_qubits, j))
        if out.amplitudes.size != dim:
            raise ValueError(
                f"circuit changed the dimension: {out.amplitudes.size} != {dim}"
            )
        columns.append(out.amplitudes)
    return np.stack(columns, axis=1)
