"""Exact linear algebra over Gaussian-rational scalars.

Matrices are plain lists of rows of :class:`~anticanon.exact.ExactScalar`.
Everything here is deterministic: pivots are chosen by position, never by
magnitude, so results are reproducible and exactly rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import SingularMatrix
from .exact import ExactScalar, as_scalar

Matrix = list[list[ExactScalar]]
Vector = list[ExactScalar]


def _clone(rows: Sequence[Sequence[ExactScalar]]) -> Matrix:
    return [[as_scalar(e) for e in row] for row in rows]


def rref(rows: Sequence[Sequence[ExactScalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and pivot columns."""
    m = _clone(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        pivot = next((k for k in range(r, len(m)) if not m[k][c].is_zero()), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [e * inv for e in m[r]]
        for k in range(len(m)):
            if k == r or m[k][c].is_zero():
                continue
            f = m[k][c]
            m[k] = [a - f * b for a, b in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def matrix_rank(rows: Sequence[Sequence[ExactScalar]]) -> int:
    _, pivots = rref(rows)
    return len(pivots)


def matrix_det(rows: Sequence[Sequence[ExactScalar]]) -> ExactScalar:
    """Exact determinant by Gaussian elimination."""
    n = len(rows)
    m = _clone(rows)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    det = ExactScalar(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if not m[r][c].is_zero()), None)
        if pivot is None:
            return ExactScalar(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c]
        inv = m[c][c].inverse()
        for r in range(c + 1, n):
            if m[r][c].is_zero():
                continue
            f = m[r][c] * inv
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def matrix_inverse(rows: Sequence[Sequence[ExactScalar]]) -> Matrix:
    """Exact inverse of a square scalar matrix."""
    n = len(rows)
    aug = []
    for k, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("matrix must be square")
        aug.append([as_scalar(e) for e in row] +
                   [ExactScalar(1 if j == k else 0) for j in range(n)])
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return [row[n:] for row in red]


def nullspace_basis(rows: Sequence[Sequence[ExactScalar]]) -> list[Vector]:
    """Basis of the right nullspace, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ExactScalar(0)] * ncols
        vec[fc] = ExactScalar(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


@dataclass
class LinearSolution:
    """Outcome of an exact linear solve ``A x = b``."""

    consistent: bool
    particular: Vector | None
    nullspace: list[Vector]


def solve_linear(rows: Sequence[Sequence[ExactScalar]],
                 rhs: Sequence[ExactScalar]) -> LinearSolution:
    """Solve ``A x = b`` exactly, reporting inconsistency or the affine family."""
    if len(rows) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if not rows:
        return LinearSolution(True, [], [])
    ncols = len(rows[0])
    aug = [[as_scalar(e) for e in row] + [as_scalar(b)]
           for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return LinearSolution(False, None, [])
    particular = [ExactScalar(0)] * ncols
    for r, pc in enumerate(pivots):
        particular[pc] = red[r][ncols]
    null = nullspace_basis(rows)
    return LinearSolution(True, particular, null)


def row_space_basis(rows: Sequence[Sequence[ExactScalar]]) -> Matrix:
    """Canonical basis (nonzero RREF rows) of the span of the given rows."""
    red, pivots = rref(rows)
    return [red[r] for r in range(len(pivots))]


def in_row_space(rows: Sequence[Sequence[ExactScalar]],
                 vec: Sequence[ExactScalar]) -> bool:
    """Whether ``vec`` lies in the row span of ``rows``."""
    base = [list(r) for r in rows]
    return matrix_rank(base + [list(vec)]) == matrix_rank(base)


def intersect_row_spaces(a: Sequence[Sequence[ExactScalar]],
                         b: Sequence[Sequence[ExactScalar]]) -> Matrix:
    """Basis of the intersection of two row spans in the same ambient space.

    Solves ``x^T A = y^T B`` by taking the nullspace of the stacked transpose.
    """
    if not a or not b:
        return []
    acols = len(a[0])
    stacked = []
    for c in range(acols):
        stacked.append([row[c] for row in a] + [-as_scalar(row[c]) for row in b])
    combos = nullspace_basis(stacked)
    vecs = []
    for combo in combos:
        coeffs = combo[:len(a)]
        vec = [ExactScalar(0)] * acols
        for w, row in zip(coeffs, a):
            for c in range(acols):
                vec[c] = vec[c] + w * row[c]
        if any(not e.is_zero() for e in vec):
            vecs.append(vec)
    return row_space_basis(vecs)
