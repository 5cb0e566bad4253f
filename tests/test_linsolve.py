"""Exact linear algebra over Gaussian rationals.

The library eliminates fraction-free over the Gaussian integers.  The
differential tests below compare it with a plain Gauss-Jordan over
``ExactScalar`` (``Fraction`` pairs), the routine the library used before,
kept here as the oracle, and with ``sympy.Matrix``.
"""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anticanon.errors import SingularMatrix
from anticanon.exact import ExactScalar
from anticanon.linsolve import (
    clear_row,
    in_row_space,
    integer_rank,
    intersect_row_spaces,
    matrix_det,
    matrix_inverse,
    matrix_rank,
    nullspace_basis,
    row_space_basis,
    rref,
    solve_linear,
)

E = ExactScalar


def _m(rows):
    return [[E(x) if not isinstance(x, tuple) else E(*x) for x in row]
            for row in rows]


scalars = st.builds(
    ExactScalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
mat3 = st.lists(st.lists(scalars, min_size=3, max_size=3), min_size=3, max_size=3)


def test_rank_and_det_frozen():
    a = _m([[1, 2], [2, 4]])
    assert matrix_rank(a) == 1
    assert matrix_det(a) == E(0)
    b = _m([[0, 1], [1, 0]])
    assert matrix_det(b) == E(-1)
    c = _m([[(0, 1), 0], [0, (0, 1)]])     # diag(i, i)
    assert matrix_det(c) == E(-1)


def test_inverse_roundtrip_and_singular():
    a = _m([[1, 1], [0, 2]])
    inv = matrix_inverse(a)
    assert inv[0][1] == E(Fraction(-1, 2))
    prod = [[sum((a[i][k] * inv[k][j] for k in range(2)), E(0))
             for j in range(2)] for i in range(2)]
    assert prod == _m([[1, 0], [0, 1]])
    with pytest.raises(SingularMatrix):
        matrix_inverse(_m([[1, 2], [2, 4]]))


def test_nullspace_annihilates():
    a = _m([[1, 2, 3], [2, 4, 6]])
    basis = nullspace_basis(a)
    assert len(basis) == 2
    for v in basis:
        for row in a:
            assert sum((row[j] * v[j] for j in range(3)), E(0)) == E(0)


def test_solve_consistent_and_inconsistent():
    a = _m([[1, 1], [1, -1]])
    sol = solve_linear(a, [E(2), E(0)])
    assert sol.consistent and sol.particular == [E(1), E(1)]
    assert sol.nullspace == []

    bad = solve_linear(_m([[1, 1], [2, 2]]), [E(1), E(3)])
    assert not bad.consistent


def test_row_space_membership_and_intersection():
    a = _m([[1, 0, 0], [0, 1, 0]])
    b = _m([[1, 1, 0], [0, 0, 1]])
    assert in_row_space(a, [E(3), E(-2), E(0)])
    assert not in_row_space(a, [E(0), E(0), E(1)])
    inter = intersect_row_spaces(a, b)
    assert len(inter) == 1
    v = inter[0]
    assert in_row_space(a, v) and in_row_space(b, v)
    # the intersection is spanned by (1, 1, 0)
    assert v[2] == E(0) and v[0] == v[1] and v[0] != E(0)


@given(mat3)
@settings(max_examples=40, deadline=None)
def test_rank_nullity(a):
    assert matrix_rank(a) + len(nullspace_basis(a)) == 3


@given(mat3)
@settings(max_examples=40, deadline=None)
def test_det_zero_iff_rank_deficient(a):
    assert (matrix_det(a) == E(0)) == (matrix_rank(a) < 3)


@given(mat3)
@settings(max_examples=30, deadline=None)
def test_inverse_is_two_sided(a):
    if matrix_rank(a) < 3:
        with pytest.raises(SingularMatrix):
            matrix_inverse(a)
        return
    inv = matrix_inverse(a)
    for i in range(3):
        for j in range(3):
            lhs = sum((a[i][k] * inv[k][j] for k in range(3)), E(0))
            rhs = sum((inv[i][k] * a[k][j] for k in range(3)), E(0))
            want = E(1 if i == j else 0)
            assert lhs == want and rhs == want


@given(mat3, mat3)
@settings(max_examples=25, deadline=None)
def test_intersection_is_contained_in_both(a, b):
    for v in intersect_row_spaces(a, b):
        assert in_row_space(a, v)
        assert in_row_space(b, v)


@given(mat3)
@settings(max_examples=25, deadline=None)
def test_row_space_basis_spans_original_rows(a):
    basis = row_space_basis(a)
    assert len(basis) == matrix_rank(a)
    for row in a:
        assert in_row_space(basis, row) or all(x == E(0) for x in row)


# ---------------------------------------------------------------------------
# differential tests against Gauss-Jordan over Fraction pairs
# ---------------------------------------------------------------------------


def _oracle_rref(rows):
    """Reduced row-echelon form by Gauss-Jordan over ``ExactScalar``."""
    m = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
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


def _oracle_det(rows):
    """Determinant by Gaussian elimination over ``ExactScalar``."""
    n = len(rows)
    m = [list(row) for row in rows]
    det = E(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if not m[r][c].is_zero()), None)
        if pivot is None:
            return E(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c]
        inv = m[c][c].inverse()
        for r in range(c + 1, n):
            f = m[r][c] * inv
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _oracle_nullspace(rows):
    red, pivots = _oracle_rref(rows)
    ncols = len(rows[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [E(0)] * ncols
        vec[fc] = E(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


_parts = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def matrices(draw, max_rows=6, max_cols=10, ncols=None):
    """Gaussian-rational matrices, often real, with zero rows and columns
    and rows that are combinations of others."""
    nrows = draw(st.integers(1, max_rows))
    if ncols is None:
        ncols = draw(st.integers(1, max_cols))
    real = draw(st.booleans())
    entry = st.one_of(st.just(E(0)),
                      st.builds(E, _parts, st.just(0) if real else _parts))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    index = st.integers(0, nrows - 1)
    for _ in range(draw(st.integers(0, 2))):
        t, a, b = draw(index), draw(index), draw(index)
        w = draw(st.builds(E, _parts, st.just(0) if real else _parts))
        rows[t] = [x + w * y for x, y in zip(rows[a], rows[b])]
    for t in draw(st.sets(index, max_size=2)):
        rows[t] = [E(0)] * ncols
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = E(0)
    return rows


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_rref_rank_and_nullspace_match_fraction_oracle(a):
    red, pivots = _oracle_rref(a)
    assert rref(a) == (red, pivots)
    assert matrix_rank(a) == len(pivots)
    assert nullspace_basis(a) == _oracle_nullspace(a)


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_integer_rank_matches_matrix_rank_after_clearing(a):
    cleared = [clear_row(row) for row in a]
    re = [r for r, _, _ in cleared]
    im = [i for _, i, _ in cleared]
    copies = ([list(r) for r in re], [list(i) for i in im])
    assert integer_rank(re, im) == matrix_rank(a)
    assert (re, im) == copies
    if not any(any(row) for row in im):
        assert integer_rank(re) == matrix_rank(a)


def _oracle_intersect(a, b):
    """``intersect_row_spaces`` recombining with ``ExactScalar`` products,
    as the library did before it recombined on Gaussian integers."""
    acols = len(a[0])
    stacked = [[row[c] for row in a] + [-row[c] for row in b]
               for c in range(acols)]
    vecs = []
    for combo in nullspace_basis(stacked):
        vec = [E(0)] * acols
        for w, row in zip(combo[:len(a)], a):
            vec = [v + w * x for v, x in zip(vec, row)]
        if any(not e.is_zero() for e in vec):
            vecs.append(vec)
    return row_space_basis(vecs)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_intersection_matches_fraction_oracle(data):
    a = data.draw(matrices())
    b = data.draw(matrices(ncols=len(a[0])))
    assert intersect_row_spaces(a, b) == _oracle_intersect(a, b)


def test_integer_rank_of_empty_and_zero_rows():
    assert integer_rank([]) == 0
    assert integer_rank([[]]) == 0
    assert integer_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert integer_rank([[0, 0], [0, 0]], [[0, 0], [0, 0]]) == 0
    assert integer_rank([[0, 0], [2, 4], [0, 0], [1, 2]]) == 1
    assert integer_rank([[0, 0], [1, 0]], [[0, 0], [0, 1]]) == 1
    assert integer_rank([[1, 0], [0, 0]], [[0, 0], [0, 1]]) == 2


@given(matrices(max_cols=6))
@settings(max_examples=30, deadline=None)
def test_det_and_inverse_match_fraction_oracle(a):
    n = min(len(a), len(a[0]))
    square = [row[:n] for row in a[:n]]
    assert matrix_det(square) == _oracle_det(square)
    red, pivots = _oracle_rref([row + [E(1 if j == k else 0) for j in range(n)]
                                for k, row in enumerate(square)])
    if pivots[:n] != list(range(n)):
        with pytest.raises(SingularMatrix):
            matrix_inverse(square)
    else:
        assert matrix_inverse(square) == [row[n:] for row in red]


# ---------------------------------------------------------------------------
# sympy, on a few seeded matrices
# ---------------------------------------------------------------------------

SYMPY_DEADLINE_S = 30


@contextmanager
def _deadline(seconds: int):
    def _expired(signum, frame):
        raise TimeoutError(f"case did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _seeded_matrix(seed: int, nrows: int, ncols: int, rank: int):
    """A product of random ``nrows x rank`` and ``rank x ncols`` factors."""
    rng = random.Random(seed)

    def scalar():
        return E(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                 Fraction(rng.randint(-5, 5), rng.randint(1, 4)))

    left = [[scalar() for _ in range(rank)] for _ in range(nrows)]
    right = [[scalar() for _ in range(ncols)] for _ in range(rank)]
    return [[sum((left[i][t] * right[t][j] for t in range(rank)), E(0))
             for j in range(ncols)] for i in range(nrows)]


def _sympy_matrix(sympy, rows):
    return sympy.Matrix([[sympy.Rational(e.re.numerator, e.re.denominator)
                          + sympy.I * sympy.Rational(e.im.numerator, e.im.denominator)
                          for e in row] for row in rows])


@pytest.mark.parametrize("seed, shape", [
    (1, (4, 6, 4)), (2, (6, 10, 3)), (3, (5, 8, 2)),
])
def test_rank_and_rref_match_sympy(seed, shape):
    sympy = pytest.importorskip("sympy")
    a = _seeded_matrix(seed, *shape)
    reference = _sympy_matrix(sympy, a)
    with _deadline(SYMPY_DEADLINE_S):
        rank = reference.rank()
        red, pivots = reference.rref()
    assert matrix_rank(a) == rank == shape[2]
    ours, our_pivots = rref(a)
    assert our_pivots == list(pivots)
    assert _sympy_matrix(sympy, ours) == red
