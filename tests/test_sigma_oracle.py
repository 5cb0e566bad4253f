"""Differential test of sigma and the Kähler defect against sympy.

sympy inverts the component matrix ``S`` by its own cofactor adjugate,
differentiates ``sigma = S^-1`` as rational functions and decides which
defect entries vanish.  anticanon must agree on every basis: ``sigma . S``
is the identity, the nonzero residuals are the same entries with the same
values, and the Kähler verdict equals the abelian verdict.

The random C^3 linear basis is the class whose defect did not finish within
a minute when sigma was inverted over rational functions; each case runs
under a 30 s alarm so that a regression fails instead of hanging.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager

import pytest

sympy = pytest.importorskip("sympy")

from anticanon.fields import FieldBasis, affine_field  # noqa: E402
from anticanon.metric import build_metric, kahler_defect  # noqa: E402

CASE_DEADLINE_S = 30


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


def _symbols(n: int) -> dict:
    names = {f"z{k}": sympy.Symbol(f"z{k}") for k in range(1, n + 1)}
    names["i"] = sympy.I
    return names


def _sym(text: str, names: dict):
    return sympy.sympify(text.replace("^", "**"), locals=names)


def _poly_text(terms: dict) -> str:
    pieces = []
    for exp, (re, im) in terms.items():
        mono = "*".join(f"z{k + 1}^{e}" for k, e in enumerate(exp) if e) or "1"
        pieces.append(f"({re}{im:+d}*i)*{mono}")
    return " + ".join(pieces) or "0"


def _random_rows(rng: random.Random, n: int, degree: int) -> list[list[str]]:
    """n fields with two or three Gaussian-integer terms per component."""
    monos = list(_exponents(n, degree))
    return [[_poly_text({rng.choice(monos): (rng.randint(-2, 2), rng.randint(-1, 1))
                         for _ in range(rng.randint(2, 3))})
             for _ in range(n)] for _ in range(n)]


def _exponents(n: int, degree: int):
    if n == 0:
        yield ()
        return
    for first in range(degree + 1):
        for rest in _exponents(n - 1, degree - first):
            yield (first,) + rest


def _conjugated_torus_rows(rng: random.Random, n: int) -> list[list[str]]:
    """Weighted coordinate fields ``a_k z_k d_k`` pushed forward by a random
    unimodular linear map: commuting, so the metric is Kähler."""
    lower = sympy.Matrix(n, n, lambda r, c: 1 if r == c else
                         (rng.randint(-2, 2) if r > c else 0))
    upper = sympy.Matrix(n, n, lambda r, c: 1 if r == c else
                         (rng.randint(-2, 2) if r < c else 0))
    m = lower * upper
    inv = m.inv()
    z = sympy.Matrix([sympy.Symbol(f"z{k}") for k in range(1, n + 1)])
    rows = []
    for k in range(n):
        weight = rng.choice((-2, -1, 1, 2, 3))
        coord = (inv * z)[k]
        rows.append([str(sympy.expand(weight * m[j, k] * coord)).replace("**", "^")
                     for j in range(n)])
    return rows


def _cases():
    rng = random.Random("sigma-oracle")
    cases = []
    for n, degree, count in ((2, 1, 5), (2, 2, 4), (3, 1, 2)):
        made = 0
        while made < count:
            rows = _random_rows(rng, n, degree)
            basis = FieldBasis([affine_field(n, r) for r in rows])
            if basis.det_section.is_zero():
                continue
            cases.append((f"random-C{n}d{degree}-{made}", n, rows))
            made += 1
    for n in (2, 3):
        cases.append((f"torus-C{n}d1", n, _conjugated_torus_rows(rng, n)))
    cases.append(("shear-C2d2", 2, [["z1", "2*z1^2"], ["0", "z2 - z1^2"]]))
    return cases


CASES = _cases()


def _is_zero(expr) -> bool:
    numerator, _denominator = sympy.fraction(sympy.together(expr))
    return sympy.expand(numerator) == 0


def _sympy_defect(S) -> dict:
    """Nonzero entries of d(sigma_ik)/dz_l - d(sigma_lk)/dz_i, i < l."""
    n = S.shape[0]
    z = [sympy.Symbol(f"z{k}") for k in range(1, n + 1)]
    sigma = S.adjugate() / S.det()
    out = {}
    for i in range(n):
        for l in range(i + 1, n):
            for k in range(n):
                r = sympy.diff(sigma[i, k], z[l]) - sympy.diff(sigma[l, k], z[i])
                if not _is_zero(r):
                    out[(i, k, l)] = r
    return out


@pytest.mark.parametrize("name,n,rows", CASES, ids=[c[0] for c in CASES])
def test_sigma_and_defect_match_sympy(name, n, rows):
    names = _symbols(n)
    with _deadline(CASE_DEADLINE_S):
        basis = FieldBasis([affine_field(n, r) for r in rows])
        model = build_metric(basis)
        defect = kahler_defect(model)
    S = sympy.Matrix([[_sym(e, names) for e in row] for row in rows])
    sigma = sympy.Matrix([[_sym(str(e), names) for e in row] for row in model.sigma])
    assert all(_is_zero(e) for e in sigma * S - sympy.eye(n))

    expected = _sympy_defect(S)
    assert sorted(defect.residuals) == sorted(expected)
    assert defect.is_zero == (not expected)
    assert defect.is_zero == basis.is_abelian()
    # Values: sympy decided exactly which entries vanish; the nonzero ones
    # must also be the same functions, compared at a few points.
    z = [names[f"z{k}"] for k in range(1, n + 1)]
    points = [[complex(0.3 + 0.2 * j + 0.1 * k, 0.1 * (k - j) + 0.05) for k in range(n)]
              for j in range(3)]
    for key, residual in defect.residuals.items():
        theirs = sympy.lambdify(z, expected[key])
        for p in points:
            ours = residual.eval_complex(dict(zip(basis.chart.variables, p)))
            assert ours == pytest.approx(complex(theirs(*p)), rel=1e-9)


def test_cases_cover_both_verdicts_and_the_c3_random_class():
    assert any(name.startswith("random-C3d1") for name, _, _ in CASES)
    verdicts = set()
    for _name, n, rows in CASES:
        verdicts.add(FieldBasis([affine_field(n, r) for r in rows]).is_abelian())
    assert verdicts == {True, False}
