"""Reference math for the benchmark's output checks.

Nothing here imports ``wgtoffoli``: each check re-derives the expected
answer from the conventions the package documents, so a defect in the
package cannot also hide in its own oracle.

Conventions (from the package README): qubit 0 is the least significant
bit of an amplitude index; an edge of weight theta multiplies every
amplitude whose two endpoint bits are set by ``exp(i*theta)``; basis
``B(alpha)`` has kets ``(|0> +/- e^{i alpha}|1>)/sqrt(2)`` for outcomes
0/1, and its H-composed variant pushes both kets through H. Projection
contracts with the conjugated ket and drops the qubit, so the survivors
keep their order and the squared norm is the branch probability.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

KET_PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
KET_ZERO = np.array([1, 0], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# Success probabilities from the paper's table, keyed by (resource,
# linking model). The six-qubit values hold for every theta.
PAPER_SUCCESS = {
    ("six", "none"): Fraction(1, 2),
    ("six", "uniform"): Fraction(1, 4),
    ("seven", "none"): Fraction(1),
    ("seven", "uniform"): Fraction(1, 2),
    ("eight", "none"): Fraction(1),
    ("eight", "uniform"): Fraction(1),
}

# ``verify all`` checks 3 and 4 visit every successful branch (336) and
# every branch under two z-corruption patterns (704).
VERIFY_BRANCHES = {3: 336, 4: 704}

# The six-qubit resource at theta = pi, 1-based vertex labels; the optics
# recipe leaves mode m on vertex m.
SIX_QUBIT_EDGES = [
    (1, 2, math.pi / 2),
    (1, 4, -math.pi / 2),
    (1, 6, math.pi / 2),
    (2, 3, math.pi),
    (3, 4, math.pi),
    (4, 5, math.pi),
    (3, 6, math.pi),
    (5, 6, math.pi),
]

COINCIDENCE_PROBABILITY = 2.0**-9


def radians(angle) -> float:
    """Rational angles are multiples of pi; floats are radians already."""
    if isinstance(angle, Fraction):
        return float(angle) * math.pi
    return float(angle)


def graph_state(num_vertices: int, edges, hadamard_vertices=()) -> np.ndarray:
    """Dense graph state: a product of vertex kets times one phase per edge.

    ``edges`` holds ``(i, j, radians)`` with 0-based vertices; vertices in
    ``hadamard_vertices`` start in ``H|+> = |0>`` instead of ``|+>``.
    """
    kets = [
        KET_ZERO if v in hadamard_vertices else KET_PLUS
        for v in range(num_vertices - 1, -1, -1)
    ]
    letters = "abcdefghijklmnopqrstuvwxyz"[:num_vertices]
    product = np.einsum(",".join(letters) + "->" + letters, *kets)
    bits = (np.arange(1 << num_vertices)[:, None] >> np.arange(num_vertices)) & 1
    phase = np.zeros(1 << num_vertices)
    for i, j, theta in edges:
        phase += theta * bits[:, i] * bits[:, j]
    return product.reshape(-1) * np.exp(1j * phase)


def measurement_ket(alpha: float, hadamard: bool, outcome: int) -> np.ndarray:
    sign = -1 if outcome else 1
    ket = np.array([1, sign * np.exp(1j * alpha)], dtype=complex) / math.sqrt(2)
    return HADAMARD @ ket if hadamard else ket


def project_branch(amplitudes: np.ndarray, num_vertices: int, kets: dict) -> np.ndarray:
    """Contract every measured vertex with its conjugated ket in one einsum."""
    letters = "abcdefghijklmnopqrstuvwxyz"[:num_vertices]
    # Tensor axis a holds qubit n-1-a, so the flat index keeps qubit 0 last.
    axis_of = {v: letters[num_vertices - 1 - v] for v in range(num_vertices)}
    kept = "".join(axis_of[v] for v in range(num_vertices - 1, -1, -1) if v not in kets)
    operands = [amplitudes.reshape((2,) * num_vertices)]
    subscripts = [letters]
    for v, ket in kets.items():
        operands.append(np.conj(ket))
        subscripts.append(axis_of[v])
    out = np.einsum(",".join(subscripts) + "->" + kept, *operands)
    return np.asarray(out).reshape(-1)


def fidelity(expected: np.ndarray, got: np.ndarray) -> float:
    """|<expected|got>|^2 for two states, each normalised here."""
    a = expected / np.linalg.norm(expected)
    b = got / np.linalg.norm(got)
    return float(abs(np.vdot(a, b)) ** 2)
