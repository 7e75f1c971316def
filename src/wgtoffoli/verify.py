"""Operator comparisons: phase-free equality, locality, process fidelity.

Every function takes one matrix or a ``(B, d, d)`` stack of them and
tests each stack member on its own; a 2-D call is the stack of one and
returns a plain ``bool``, ``float`` or matrix where a stack returns an
array with one entry per member. A stack gives each member the bits its
own 2-D call gives. A second operand may be one matrix, which every
member of the first is compared with.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .qstate import norms_sq

LOCALITY_TOL = 1e-8


def _stacks(*operands, min_ndim: int = 2):
    """The operands as complex stacks of one member shape, and whether none was a stack.

    An operand with fewer than three axes is one member; it must have at
    least ``min_ndim`` axes and is repeated along the other operands' stack.
    """
    arrays = [np.asarray(op, dtype=complex) for op in operands]
    for op in arrays:
        if not min_ndim <= op.ndim <= 3:
            raise ValueError(f"expected one matrix or a (B, d, d) stack, got shape {op.shape}")
    shapes = [op.shape[op.ndim == 3 :] for op in arrays]
    if len(set(shapes)) != 1:
        raise ValueError("shape mismatch: " + " vs ".join(map(str, (op.shape for op in arrays))))
    single = all(op.ndim < 3 for op in arrays)
    stacks = np.broadcast_arrays(*(op if op.ndim == 3 else op[None] for op in arrays))
    return stacks, single


def _require(ok: np.ndarray, message: str) -> None:
    """Raise ``ValueError`` naming the first stack index where ``ok`` is false."""
    if not ok.all():
        raise ValueError(f"{message} (stack index {int(np.argmin(ok))})")


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10):
    """True iff ``a`` equals ``b`` up to one complex scalar, per stack member.

    The scalar is the least-squares fit ``tr(b^dag a) / tr(b^dag b)``; for
    inputs of equal norm it is a pure phase. One- and two-axis operands
    are one member each, compared whole.
    """
    (a, b), single = _stacks(a, b, min_ndim=1)
    a = a.reshape(len(a), -1)
    b = b.reshape(len(b), -1)
    denom = np.einsum("ij,ij->i", b.conj(), b)
    _require(denom != 0, "comparison target is identically zero")
    scale = np.einsum("ij,ij->i", b.conj(), a) / denom
    equal = np.max(np.abs(a - scale[:, None] * b), axis=1) <= tol
    return bool(equal[0]) if single else equal


@dataclass
class LocalityVerdict:
    """``is_local`` and each of the three cuts' Schmidt values, per member of a stack."""

    is_local: bool | np.ndarray
    schmidt_singular_values: list[np.ndarray]
    tolerance: float


def _schmidt_values(stack: np.ndarray, wire: int) -> np.ndarray:
    """``(B, 4)`` singular values of each member's one-wire-versus-rest matricisation."""
    others = [w for w in range(3) if w != wire]
    axes = [0] + [1 + w for w in [wire, 3 + wire] + others + [3 + w for w in others]]
    mats = np.transpose(stack.reshape((-1,) + (2,) * 6), axes).reshape(-1, 4, 16)
    return np.linalg.svd(mats, compute_uv=False)


def is_local(op: np.ndarray, tol: float = LOCALITY_TOL) -> LocalityVerdict:
    """Tensor-product test: Schmidt rank 1 across every single-wire cut.

    The zero operator has no locality, and non-finite entries have no
    Schmidt values: both raise ``ValueError`` naming the stack index.
    """
    (stack,), single = _stacks(op)
    if stack.shape[1:] != (8, 8):
        raise ValueError("expected an 8x8 operator on three wires")
    _require(np.isfinite(stack).all(axis=(1, 2)), "operator has a non-finite entry")
    _require(stack.any(axis=(1, 2)), "the zero operator is neither local nor non-local")
    values = [_schmidt_values(stack, wire) for wire in range(3)]
    local = np.logical_and.reduce([v[:, 1] <= tol * v[:, 0] for v in values])
    if single:
        return LocalityVerdict(bool(local[0]), [v[0] for v in values], tol)
    return LocalityVerdict(local, values, tol)


def process_fidelity(a: np.ndarray, b: np.ndarray):
    """|tr(a^dag b)|^2 / d^2 for two unitaries of dimension d, per stack member.

    Warns once per non-unitary member of a stack operand, naming its index,
    and once for a non-unitary one-matrix operand, which is checked once.
    """
    repeated = [np.ndim(op) < 3 for op in (a, b)]
    (a, b), single = _stacks(a, b)
    if a.shape[1] != a.shape[2]:
        raise ValueError(f"incompatible shapes {a.shape[1:]} and {b.shape[1:]}")
    for name, stack, one in zip(("first", "second"), (a, b), repeated):
        members = stack[:1] if one else stack
        gram = members.conj().swapaxes(1, 2) @ members
        unitary = np.max(np.abs(gram - np.eye(stack.shape[1])), axis=(1, 2)) <= 1e-9
        for index in np.flatnonzero(~unitary):
            where = "" if one else f" (stack index {index})"
            warnings.warn(f"{name} operator{where} is not unitary; fidelity may be meaningless")
    dim = a.shape[1]
    traces = np.trace(a.conj().swapaxes(1, 2) @ b, axis1=1, axis2=2)
    # The scalar abs of each trace: numpy's vectorised complex abs can
    # differ from it in the last bit, which the reported fidelity shows.
    fidelities = np.array([float(abs(trace) ** 2 / dim**2) for trace in traces])
    return float(fidelities[0]) if single else fidelities


def unit_scale(op: np.ndarray) -> np.ndarray:
    """Rescale a matrix proportional to a unitary onto unitary scale, per stack member.

    Each member's squared Frobenius norm is its flattened row's
    ``qstate.norms_sq``, bitwise equal to ``np.vdot(member, member).real``
    of a C-contiguous member; those bits set the reported fidelities.
    """
    (stack,), single = _stacks(op)
    frob_sq = norms_sq(stack.reshape(len(stack), -1))
    _require(frob_sq != 0, "cannot rescale the zero operator")
    scaled = stack * np.sqrt(stack.shape[1] / frob_sq)[:, None, None]
    return scaled[0] if single else scaled
