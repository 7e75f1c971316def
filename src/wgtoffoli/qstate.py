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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
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


def kron_all(*matrices: np.ndarray) -> np.ndarray:
    """Kronecker product; the first factor addresses the most significant bits."""
    return reduce(np.kron, matrices)


def is_unitary(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool(
        np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0]))) <= tol
    )


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

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())


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
    axes = [n - 1 - q for q in targets]
    tensor = state.amplitudes.reshape((2,) * n)
    tensor = np.moveaxis(tensor, axes, range(k))
    tensor = (matrix @ tensor.reshape(1 << k, -1)).reshape((2,) * n)
    tensor = np.moveaxis(tensor, range(k), axes)
    return StateVector(n, tensor.reshape(-1))


def apply_cz_theta(
    state: StateVector, qubit_a: int, qubit_b: int, theta: float
) -> StateVector:
    """Controlled phase: multiply amplitudes with both bits set by e^{i*theta}."""
    if qubit_a == qubit_b:
        raise ValueError("controlled phase needs two distinct qubits")
    _check_qubit(state, qubit_a)
    _check_qubit(state, qubit_b)
    idx = np.arange(1 << state.num_qubits)
    mask = ((idx >> qubit_a) & (idx >> qubit_b) & 1).astype(bool)
    amps = state.amplitudes.copy()
    amps[mask] *= np.exp(1j * theta)
    return StateVector(state.num_qubits, amps)


def project(state: StateVector, qubit: int, ket: np.ndarray) -> StateVector:
    """Project one qubit onto ``ket`` and drop it from the register.

    The result is not renormalised: its ``norm_sq`` equals the outcome
    probability times the input ``norm_sq``. Remaining qubits keep their
    relative order (those above ``qubit`` shift down by one).
    """
    _check_qubit(state, qubit)
    ket = np.asarray(ket, dtype=complex)
    if ket.shape != (2,):
        raise ValueError("projection ket must be a single-qubit state")
    if abs(np.vdot(ket, ket).real - 1.0) > 1e-10:
        raise ValueError("projection ket must be normalised")
    n = state.num_qubits
    axis = n - 1 - qubit
    tensor = state.amplitudes.reshape((2,) * n)
    out = np.conj(ket[0]) * np.take(tensor, 0, axis=axis)
    out = out + np.conj(ket[1]) * np.take(tensor, 1, axis=axis)
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
