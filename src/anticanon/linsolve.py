"""Exact linear algebra over Gaussian-rational scalars.

Matrices are plain lists of rows of :class:`~anticanon.exact.ExactScalar`.
Every routine here reads one fraction-free elimination (Bareiss).
:func:`clear_row` multiplies a row once by the least common multiple of its
denominators and returns it as Gaussian integers kept as pairs of Python
ints; the one Bareiss loop runs on those pairs and divides exactly by the
previous pivot at each step, and rationals come back only when the pivot
rows are normalised at the end.  Callers that already hold integer rows
(the period constraints of :mod:`anticanon.cone`) rank them through
:func:`integer_rank`, which enters the same loop without clearing.

Pivots are chosen by position, never by magnitude, so results are
reproducible.  The reduced row-echelon form of a matrix is unique, so the
normalised rows are the same canonical RREF that Gauss-Jordan over the
rationals gives, and everything read from them is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SingularMatrix
from .exact import ExactScalar, as_scalar

Matrix = list[list[ExactScalar]]
Vector = list[ExactScalar]


@dataclass
class _Echelon:
    """A fraction-free echelon form of the row-scaled matrix.

    Entry ``(r, j)`` is ``re[r][j] + i*im[r][j]``.  ``scale`` is the product
    of the factors that cleared the denominators of the input rows, ``sign``
    the sign of the row permutation and ``last`` the last pivot taken.
    """

    re: list[list[int]]
    im: list[list[int]]
    scale: int
    pivots: list[int]
    sign: int
    last: tuple[int, int]


def clear_row(row: Sequence[ExactScalar]) -> tuple[list[int], list[int], int]:
    """A row cleared over the positive lcm ``scale`` of its denominators.

    Returns the real and imaginary parts of ``scale * row`` as ints, and
    ``scale``.
    """
    entries = [as_scalar(e) for e in row]
    scale = math.lcm(*(x.denominator for e in entries for x in (e.re, e.im)))
    return ([e.re.numerator * (scale // e.re.denominator) for e in entries],
            [e.im.numerator * (scale // e.im.denominator) for e in entries],
            scale)


def _eliminate(rows: Sequence[Sequence[ExactScalar]], reduce: bool) -> _Echelon:
    """:func:`_bareiss` on the rows cleared by :func:`clear_row`."""
    re: list[list[int]] = []
    im: list[list[int]] = []
    scale = 1
    for row in rows:
        r, i, s = clear_row(row)
        re.append(r)
        im.append(i)
        scale *= s
    return _bareiss(re, im, scale, reduce)


def _bareiss(re: list[list[int]], im: list[list[int]], scale: int,
             reduce: bool) -> _Echelon:
    """Bareiss elimination over the Gaussian integers, in place.

    Entry ``(r, j)`` of the input is ``re[r][j] + i*im[r][j]``.  After the
    step that takes the pivot ``p`` at ``(r, c)``, every other row ``k`` it
    touches becomes ``(p*row_k - row_k[c]*row_r) / q``, with ``q`` the
    previous pivot.  Its entries are then minors of the input (Sylvester's
    identity), so the division by ``q`` is exact.  Without ``reduce`` only
    the rows below ``r`` are eliminated, which is enough for the rank and
    the determinant.  With ``reduce`` the rows above are too (fraction-free
    Gauss-Jordan), and every pivot entry ends equal to ``last``.
    """
    nrows = len(re)
    ncols = len(re[0]) if re else 0
    real = not any(any(row) for row in im)
    qr, qi = 1, 0
    pivots: list[int] = []
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        k = next((k for k in range(r, nrows) if re[k][c] or im[k][c]), None)
        if k is None:
            continue
        if k != r:
            re[r], re[k] = re[k], re[r]
            im[r], im[k] = im[k], im[r]
            sign = -sign
        pr, pi = re[r][c], im[r][c]
        br, bi = re[r], im[r]
        norm = qr * qr + qi * qi
        for k in range(0 if reduce else r + 1, nrows):
            if k == r:
                continue
            ar, ai = re[k], im[k]
            fr, fi = ar[c], ai[c]
            if not (pi or fi or qi):
                # real multipliers act on each part alone, and a real
                # matrix has no imaginary part to update
                ar[:] = [(pr * a - fr * b) // qr for a, b in zip(ar, br)]
                if not real:
                    ai[:] = [(pr * a - fr * b) // qr for a, b in zip(ai, bi)]
            else:
                tr = [pr * a - pi * x - fr * b + fi * y
                      for a, x, b, y in zip(ar, ai, br, bi)]
                ti = [pr * x + pi * a - fr * y - fi * b
                      for a, x, b, y in zip(ar, ai, br, bi)]
                ar[:] = [(t * qr + u * qi) // norm for t, u in zip(tr, ti)]
                ai[:] = [(u * qr - t * qi) // norm for t, u in zip(tr, ti)]
        pivots.append(c)
        qr, qi = pr, pi
    return _Echelon(re, im, scale, pivots, sign, (qr, qi))


def _quotient(ar: int, ai: int, dr: int, di: int) -> ExactScalar:
    """The Gaussian rational ``(ar + ai*i) / (dr + di*i)``."""
    norm = dr * dr + di * di
    return ExactScalar(Fraction(ar * dr + ai * di, norm),
                       Fraction(ai * dr - ar * di, norm))


def _pivot_rows(ech: _Echelon) -> Matrix:
    """The nonzero rows of the RREF.

    The fraction-free pivot rows of a reduced elimination all end with the
    same pivot entry, so one division normalises them.
    """
    dr, di = ech.last
    return [[_quotient(a, x, dr, di) for a, x in zip(ech.re[r], ech.im[r])]
            for r in range(len(ech.pivots))]


def rref(rows: Sequence[Sequence[ExactScalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and pivot columns."""
    ech = _eliminate(rows, reduce=True)
    zero = ExactScalar.zero()
    out = _pivot_rows(ech)
    out += [[zero] * len(row) for row in ech.re[len(ech.pivots):]]
    return out, ech.pivots


def matrix_rank(rows: Sequence[Sequence[ExactScalar]]) -> int:
    return len(_eliminate(rows, reduce=False).pivots)


def integer_rank(re: Sequence[Sequence[int]],
                 im: "Sequence[Sequence[int]] | None" = None) -> int:
    """Rank of the Gaussian-integer matrix ``re + i*im`` (real without ``im``).

    The rows are copied, not cleared: they must already be integers.
    """
    re = [list(row) for row in re]
    im = [list(row) for row in im] if im is not None else [[0] * len(row) for row in re]
    return len(_bareiss(re, im, 1, reduce=False).pivots)


def matrix_det(rows: Sequence[Sequence[ExactScalar]]) -> ExactScalar:
    """Exact determinant: the last Bareiss pivot over the row scale factors."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    ech = _eliminate(rows, reduce=False)
    if len(ech.pivots) < n:
        return ExactScalar(0)
    dr, di = ech.last
    return ExactScalar(Fraction(ech.sign * dr, ech.scale),
                       Fraction(ech.sign * di, ech.scale))


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
    return _pivot_rows(_eliminate(rows, reduce=True))


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
    # Each combination is recombined on Gaussian integers, times the
    # positive integer that clears its coefficients and the rows of ``a``.
    # That spans the same line, so the canonical basis is unchanged.
    cleared = [clear_row(row) for row in a]
    common = math.lcm(*(s for _, _, s in cleared))
    re: list[list[int]] = []
    im: list[list[int]] = []
    for combo in combos:
        wr, wi, _ = clear_row(combo[:len(a)])
        vr, vi = [0] * acols, [0] * acols
        for x, y, (ar, ai, s) in zip(wr, wi, cleared):
            if not (x or y):
                continue
            x, y = x * (common // s), y * (common // s)
            vr = [v + x * p - y * q for v, p, q in zip(vr, ar, ai)]
            vi = [v + x * q + y * p for v, p, q in zip(vi, ar, ai)]
        if any(vr) or any(vi):
            re.append(vr)
            im.append(vi)
    return _pivot_rows(_bareiss(re, im, 1, reduce=True))
