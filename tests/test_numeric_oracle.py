"""The Python-complex RK4 and the compiled evaluator against exact oracles.

``rk4_states`` steps lists of Python ``complex`` values.  The oracle here is
the numpy-array RK4 it replaced, kept as it was but for the step time its
observer no longer receives: both apply the same IEEE operations in the same
order, so trajectories, every state along them and the step at which a
blowup is raised agree bit for bit (``tobytes``).
``compile_poly`` must give exactly what ``Poly.eval_complex`` and
``RatFunc.eval_complex`` give.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from anticanon.errors import BlowupDetected, DegenerateBasis
from anticanon.exact import ExactScalar, Poly
from anticanon.fields import Chart, FieldBasis, VectorField, affine_field
from anticanon.flows import compile_poly, integrate_flow, rk4_states
from anticanon.metric import build_metric, kahler_defect


# ---------------------------------------------------------------------------
# the numpy RK4 that rk4_states replaced
# ---------------------------------------------------------------------------


def numpy_compile_poly(p, variables):
    index = [variables.index(v) for v in p.vars]
    terms = [(c.to_complex(), exp) for exp, c in p.terms.items()]

    def evaluate(z):
        total = 0j
        for c, exp in terms:
            t = c
            for j, e in zip(index, exp):
                if e:
                    t *= z[j] ** e
            total += t
        return total

    return evaluate


def numpy_integrate_flow(field, start, t_max, steps, bound, observer=None):
    comps = [numpy_compile_poly(c, field.chart.variables) for c in field.components]

    def rhs(z):
        return np.array([f(z) for f in comps], dtype=complex)

    z = np.array([complex(c) for c in start], dtype=complex)
    if observer:
        observer(z)
    h = t_max / steps
    out = np.empty((steps + 1, len(z)), dtype=complex)
    out[0] = z
    for k in range(steps):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h * k2)
        k4 = rhs(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z)) or np.linalg.norm(z) > bound:
            raise BlowupDetected(f"trajectory left the |z| <= {bound:.1e} ball "
                                 f"at step {k + 1}")
        out[k + 1] = z
        if observer:
            observer(z)
    return out


def _bits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


def _python_integrate_flow(field, start, t_max, steps, bound, observer):
    """The rk4_states trajectory, each state passed to ``observer``."""
    out = []
    for z, _r in rk4_states(field, start, t_max, steps, bound):
        observer(z)
        out.append(z)
    return out


def _run(integrate, field, start, t_max, steps, bound):
    """Trajectory bytes (or the blowup message) and every observed state."""
    seen = []

    def observe(z):
        seen.append(_bits(z))

    with np.errstate(all="ignore"):
        try:
            outcome = _bits(integrate(field, start, t_max, steps, bound, observe))
        except BlowupDetected as exc:
            outcome = str(exc)
    return outcome, seen


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

scalars = st.builds(
    ExactScalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def polys(draw, variables, max_degree=4):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        degree = draw(st.integers(0, max_degree))
        exp = [0] * len(variables)
        for _ in range(degree):
            exp[draw(st.integers(0, len(variables) - 1))] += 1
        terms[tuple(exp)] = draw(scalars)
    return Poly(terms, variables)


def fields_on(n: int, max_degree: int):
    chart = Chart.affine(n)
    return st.tuples(*(polys(chart.variables, max_degree)
                       for _ in chart.variables)).map(
        lambda comps: VectorField(chart, comps))


fields = st.integers(1, 3).flatmap(lambda n: fields_on(n, 4))


coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
complexes = st.builds(complex, coords, coords)


# ---------------------------------------------------------------------------
# RK4
# ---------------------------------------------------------------------------


@given(fields, st.data(), st.sampled_from([0.25, 1.0]),
       st.integers(1, 40), st.sampled_from([1e6, 20.0]))
@settings(max_examples=60, deadline=None)
def test_rk4_is_bit_identical_to_the_numpy_form(field, data, t_max, steps, bound):
    start = data.draw(st.lists(complexes, min_size=field.chart.dim,
                               max_size=field.chart.dim))
    ours = _run(_python_integrate_flow, field, start, t_max, steps, bound)
    oracle = _run(numpy_integrate_flow, field, start, t_max, steps, bound)
    assert ours == oracle
    if not isinstance(ours[0], str):
        assert _bits(integrate_flow(field, start, t_max, steps, bound)) == ours[0]


def test_blowups_are_raised_at_the_numpy_step():
    cases = [
        # z' = z^2 leaves the ball gradually (1/(1 - t) from 1)
        (affine_field(1, ("z1^2",)), [1.0], 2.0, 400, 1e4),
        # a stage power overflows: numpy gives inf, Python raises
        (affine_field(1, ("z1^5",)), [1e5], 1.0, 1000, 1e6),
        # a C3 field whose second component runs away
        (affine_field(3, ("-z1", "z2^3 + z1*z3", "(1+i)*z3")),
         [0.5, 2.0, 1.0], 1.0, 200, 1e6),
    ]
    for field, start, t_max, steps, bound in cases:
        ours = _run(_python_integrate_flow, field, start, t_max, steps, bound)
        oracle = _run(numpy_integrate_flow, field, start, t_max, steps, bound)
        assert isinstance(ours[0], str) and "at step" in ours[0]
        assert ours == oracle


# ---------------------------------------------------------------------------
# compiled evaluator
# ---------------------------------------------------------------------------


def _same(a: complex, b: complex) -> bool:
    return _bits([a]) == _bits([b])


@given(polys(("z1", "z2", "z3")), st.permutations(("z1", "z2", "z3")),
       st.lists(complexes, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_compiled_poly_equals_eval_complex(p, order, z):
    variables = tuple(order)
    got = compile_poly(p, variables)(z)
    assert _same(got, p.eval_complex(dict(zip(variables, z))))


@given(st.lists(fields_on(2, 2), min_size=2, max_size=2),
       st.lists(complexes, min_size=2, max_size=2))
@settings(max_examples=20, deadline=None)
def test_compiled_ratfuncs_equal_eval_complex(basis_fields, point):
    try:
        model = build_metric(FieldBasis(basis_fields))
    except DegenerateBasis:
        assume(False)
    pm = dict(zip(model.chart.variables, point))
    assert _same(model.det_value(point), model.det_section.eval_complex(pm))
    defect = kahler_defect(model)
    dens = [e.den for row in model.sigma for e in row]
    dens += [r.den for r in defect.residuals.values()]
    assume(all(den.eval_complex(pm) != 0 for den in dens))
    got = model.sigma_value(point)
    for row, entries in zip(got, model.sigma):
        for value, entry in zip(row, entries):
            assert _same(complex(value), entry.eval_complex(pm))
    expected = max((abs(r.eval_complex(pm)) for r in defect.residuals.values()),
                   default=0.0)
    assert defect.sample_max(model, [point]) == expected
