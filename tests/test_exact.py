"""Exact scalar/polynomial kernel: frozen values plus algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from anticanon.exact import (
    ExactScalar,
    Poly,
    RatFunc,
    exact_divide,
    format_poly,
    grlex_key,
    poly_adjugate,
    poly_det,
    poly_divmod,
    poly_gcd,
    poly_rank,
    squarefree_decompose,
)
from anticanon.errors import DegenerateBasis, SingularMatrix
from anticanon.fields import FieldBasis, affine_field
from anticanon.polyparse import parse_poly, parse_scalar


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def test_scalar_arithmetic_frozen():
    a = ExactScalar(Fraction(1, 2), Fraction(3))
    b = ExactScalar(2, -1)
    assert (a + b) == ExactScalar(Fraction(5, 2), 2)
    assert (a * b) == ExactScalar(4, Fraction(11, 2))
    assert b.conjugate() == ExactScalar(2, 1)
    assert b * b.conjugate() == Fraction(5)
    assert (b * b.inverse()) == ExactScalar(1)


def test_scalar_rejects_floats():
    with pytest.raises(TypeError):
        ExactScalar(0.5)
    with pytest.raises(TypeError):
        ExactScalar(1) * 0.5


def test_scalar_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        ExactScalar(0).inverse()


scalars = st.builds(
    ExactScalar,
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_scalar_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(scalars)
@settings(max_examples=40, deadline=None)
def test_scalar_inverse_roundtrip(a):
    if a == ExactScalar(0):
        return
    assert a * a.inverse() == ExactScalar(1)


# ---------------------------------------------------------------------------
# polynomials: construction and normalization
# ---------------------------------------------------------------------------


def test_poly_drops_unused_variables():
    p = parse_poly("z2^2 + 1", variables={"z1", "z2"})
    assert p.vars == ("z2",)


def test_poly_natural_variable_order():
    p = parse_poly("z10 + z2")
    assert p.vars == ("z2", "z10")
    assert str(p) == "z2 + z10"


def test_poly_str_frozen_examples():
    assert str(parse_poly("(1+i)*x*y - i*y^2")) == "(1+i)*x*y - i*y^2"
    assert str(parse_poly("2i")) == "2*i"
    assert str(Poly.zero()) == "0"
    assert str(parse_poly("x - x")) == "0"


@st.composite
def small_polys(draw, var_names=("x", "y")):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        expo = tuple(draw(st.integers(0, 3)) for _ in var_names)
        terms[expo] = draw(scalars)
    return Poly(terms, var_names)


@given(small_polys())
@settings(max_examples=60, deadline=None)
def test_poly_format_parse_roundtrip(p):
    assert parse_poly(str(p)) == p


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p


@given(small_polys(), small_polys())
@settings(max_examples=40, deadline=None)
def test_poly_degree_of_product(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()


def test_grlex_orders_by_total_degree_then_tuple():
    assert grlex_key((0, 2)) < grlex_key((3, 0))
    assert grlex_key((1, 1)) < grlex_key((2, 0))


def test_derivative_and_eval():
    p = parse_poly("x^2*y + 3*x")
    assert str(p.derivative("x")) == "2*x*y + 3"
    val = p.eval_exact({"x": ExactScalar(2), "y": ExactScalar(0, 1)})
    assert val == ExactScalar(6, 4)
    assert p.eval_complex({"x": 2.0, "y": 1j}) == pytest.approx(6 + 4j)


def test_substitute_composes():
    p = parse_poly("x^2 + y")
    q = p.substitute({"x": parse_poly("u + 1"), "y": parse_poly("u")})
    assert q == parse_poly("u^2 + 3*u + 1")


# ---------------------------------------------------------------------------
# division, gcd, squarefree structure
# ---------------------------------------------------------------------------


def test_divmod_and_exact_divide():
    num = parse_poly("x^2 - y^2")
    den = parse_poly("x - y")
    q, r = poly_divmod(num, den)
    assert r.is_zero() and q == parse_poly("x + y")
    assert exact_divide(num, den) == q
    _q2, r2 = poly_divmod(parse_poly("x^2 + 1"), den)
    assert not r2.is_zero()


def test_gcd_frozen_examples():
    g = poly_gcd(parse_poly("z2^2*z1"), parse_poly("z2^3"))
    assert g.monic() == parse_poly("z2^2")
    g2 = poly_gcd(parse_poly("x^2 - 1"), parse_poly("x^2 - 2*x + 1"))
    assert g2.monic() == parse_poly("x - 1")
    assert poly_gcd(parse_poly("x"), parse_poly("y")).is_constant()


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=25, deadline=None)
def test_gcd_divides_both_arguments(p, q, m):
    pm, qm = p * m, q * m
    if pm.is_zero() and qm.is_zero():
        return
    g = poly_gcd(pm, qm)
    assert not g.is_zero()
    if not pm.is_zero():
        assert poly_divmod(pm, g)[1].is_zero()
    if not qm.is_zero():
        assert poly_divmod(qm, g)[1].is_zero()
    if not m.is_zero() and not pm.is_zero() and not qm.is_zero():
        assert poly_divmod(g, m)[1].is_zero()


def test_squarefree_decomposition_frozen():
    p = parse_poly("x^3 - 2*x^2 + x")       # x * (x-1)^2
    scale, factors = squarefree_decompose(p)
    assert scale == ExactScalar(1)
    assert [(str(f), m) for f, m in factors] == [("x", 1), ("x - 1", 2)]

    cube = parse_poly("z2^3")
    _s, fs = squarefree_decompose(cube)
    assert [(str(f), m) for f, m in fs] == [("z2", 3)]

    _s, fs = squarefree_decompose(parse_poly("x^2*y^3"))
    assert [(str(f), m) for f, m in fs] == [("x", 2), ("y", 3)]


@given(small_polys(var_names=("x",)), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_squarefree_reassembles(p, mult):
    if p.is_zero() or p.is_constant():
        return
    target = p ** mult
    scale, factors = squarefree_decompose(target)
    rebuilt = Poly.const(scale)
    for f, m in factors:
        rebuilt = rebuilt * f ** m
    assert rebuilt == target
    for f, _m in factors:
        assert poly_gcd(f, f.derivative(f.vars[0])).is_constant()


# ---------------------------------------------------------------------------
# determinants and rational matrices
# ---------------------------------------------------------------------------


def _mat(rows):
    return [[parse_poly(e) for e in row] for row in rows]


def test_poly_det_frozen():
    m = _mat([["z2", "0"], ["z1", "z2"]])
    assert poly_det(m) == parse_poly("z2^2")
    m3 = _mat([["z2", "0", "0"], ["z1", "z2", "0"], ["0", "z1", "z2"]])
    assert poly_det(m3) == parse_poly("z2^3")


def poly_det_cofactor(rows):
    """Determinant by Laplace expansion along the first row: slow, but an
    independent reference for the fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return Poly.one()
    total = Poly.zero()
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        cof = rows[0][j] * poly_det_cofactor(minor)
        total = total + (cof if j % 2 == 0 else -cof)
    return total


@given(st.lists(st.lists(small_polys(), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=20, deadline=None)
def test_bareiss_matches_cofactor(m):
    assert poly_det(m) == poly_det_cofactor(m)


def test_adjugate_frozen():
    m = _mat([["1", "0"], ["x", "1"]])
    adj, det = poly_adjugate(m)
    assert det == Poly.one()
    assert str(RatFunc(adj[1][0], det)) == "-x"
    ident = [[sum((m[i][k] * adj[k][j] for k in range(2)), Poly.zero())
              for j in range(2)] for i in range(2)]
    assert [[str(e) for e in row] for row in ident] == [["1", "0"], ["0", "1"]]


def test_adjugate_singular():
    with pytest.raises(SingularMatrix):
        poly_adjugate(_mat([["x", "x"], ["1", "1"]]))
    basis = FieldBasis([affine_field(2, ["z1", "z1"]), affine_field(2, ["1", "1"])])
    with pytest.raises(DegenerateBasis):
        basis.sigma


@given(st.lists(st.lists(small_polys(), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=20, deadline=None)
def test_adjugate_times_matrix_is_det(m):
    det = poly_det(m)
    if det.is_zero():
        assert poly_rank(m) < 3
        with pytest.raises(SingularMatrix):
            poly_adjugate(m)
        return
    assert poly_rank(m) == 3
    adj, d = poly_adjugate(m)
    assert d == det
    for i in range(3):
        for j in range(3):
            entry = sum((adj[i][k] * m[k][j] for k in range(3)), Poly.zero())
            assert entry == (det if i == j else Poly.zero())


def test_rank_skips_pivotless_columns():
    m = _mat([["0", "x", "y"], ["0", "x^2", "x*y"], ["0", "1", "y + 1"]])
    assert poly_det(m).is_zero()
    assert poly_rank(m) == 2
    assert poly_rank(_mat([["x", "y"], ["x^2", "x*y"]])) == 1


def test_ratfunc_reduces():
    f = RatFunc(parse_poly("x^2 - 1"), parse_poly("x - 1"))
    assert str(f) == "x + 1"
    g = RatFunc(parse_poly("2"), parse_poly("4*x"))
    assert (str(g.num), str(g.den)) == ("1/2", "x")
    assert str(g) == "(1/2)/(x)"
    assert str(RatFunc(Poly.zero(), parse_poly("x"))) == "0"


def test_parse_scalar():
    assert parse_scalar("1+i") == ExactScalar(1, 1)
    assert parse_scalar("-3/2") == ExactScalar(Fraction(-3, 2))
    with pytest.raises(Exception):
        parse_scalar("x + 1")
