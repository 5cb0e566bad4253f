"""Lattice normal forms, period constraints, potentials, and form classes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anticanon.errors import NotSemiTorus, PatternViolation
from anticanon.exact import ExactScalar
from anticanon.linsolve import matrix_rank, nullspace_basis
from anticanon.cone import (
    ConeDimension,
    LatticeData,
    NormalForm,
    StokesSystem,
    build_potential,
    class_equal,
    class_project,
    cone_dimension,
    exactness_defect,
    hermitian_from_params,
    hermitian_param_labels,
    is_exact_form,
    normal_form,
    pattern_dimension,
    stokes_constraints,
    to_adapted,
)
from anticanon.sampling import rational, rng_for

E = ExactScalar
I = E(0, 1)


def _lat(n, gens):
    return LatticeData.make(n, gens)


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


def test_trivial_lattice_all_residual():
    nf = normal_form(LatticeData.trivial(2))
    assert (nf.k, nf.l, nf.m) == (0, 0, 2)
    assert not nf.is_semi_torus()


def test_torus_lattice_all_real_block():
    nf = normal_form(_lat(2, [(I, E(0)), (E(0), I)]))
    assert (nf.k, nf.l, nf.m) == (0, 2, 0)
    assert nf.is_semi_torus()


def test_complex_block_from_spanning_pair():
    """{e1, i e1} generates a complex line: one complex-block coordinate."""
    nf = normal_form(_lat(2, [(E(1), E(0)), (I, E(0))]))
    assert (nf.k, nf.l, nf.m) == (1, 0, 1)
    assert not nf.is_semi_torus()


def test_mixed_normal_form_k1_l1_m1():
    nf = normal_form(_lat(3, [(E(1), E(0), E(0)),
                              (I, E(0), E(0)),
                              (E(0), I, E(0))]))
    assert (nf.k, nf.l, nf.m) == (1, 1, 1)


def test_adapted_generators_have_real_l_entries_and_zero_m_entries():
    nf = normal_form(_lat(2, [(I, E(0)), (E(0), I)]))
    for g in nf.adapted_generators:
        for idx in nf.l_range:
            assert g[idx].im == 0
        for idx in nf.m_range:
            assert g[idx].is_zero()


def test_lattice_rejects_floats():
    with pytest.raises(TypeError):
        LatticeData.make(1, [(0.5,)])


def _random_invertible(rng, n):
    while True:
        rows = [[E(rational(rng, span=2, den=2), rational(rng, span=2, den=2))
                 for _ in range(n)] for _ in range(n)]
        if matrix_rank(rows) == n:
            return rows


def _transform(mat, gens):
    out = []
    for g in gens:
        out.append(tuple(
            sum((mat[i][j] * g[j] for j in range(len(g))), E(0))
            for i in range(len(mat))))
    return out


def test_normal_form_type_is_gl_invariant():
    """(k, l, m) is unchanged under an invertible complex-linear map."""
    rng = rng_for(21, "gl")
    cases = [
        (2, [(I, E(0)), (E(0), I)], (0, 2, 0)),
        (2, [(E(1), E(0)), (I, E(0))], (1, 0, 1)),
        (3, [(E(1), E(0), E(0)), (I, E(0), E(0)), (E(0), I, E(0))], (1, 1, 1)),
        (2, [(I, E(0))], (0, 1, 1)),
    ]
    for n, gens, expected in cases:
        lat = _lat(n, gens)
        assert (lambda nf: (nf.k, nf.l, nf.m))(normal_form(lat)) == expected
        for _ in range(4):
            a = _random_invertible(rng, n)
            nf = normal_form(_lat(n, _transform(a, gens)))
            assert (nf.k, nf.l, nf.m) == expected


# ---------------------------------------------------------------------------
# period constraints
# ---------------------------------------------------------------------------


def params_from_hermitian(H: np.ndarray) -> list[float]:
    """Inverse of ``hermitian_from_params``."""
    n = H.shape[0]
    out = [float(H[p, p].real) for p in range(n)]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    out += [float(H[p, q].real) for p, q in pairs]
    out += [float(H[p, q].imag) for p, q in pairs]
    return out


def test_param_labels_and_roundtrip():
    labels = hermitian_param_labels(2)
    assert labels == ["a0", "a1", "x01", "y01"]
    rng = rng_for(3, "params")
    params = [rng.uniform(-1, 1) for _ in labels]
    H = hermitian_from_params(params, 2)
    assert np.allclose(H, H.conj().T)
    back = params_from_hermitian(H)
    assert np.allclose(back, params)


def test_stokes_rank_matches_pattern_for_semi_torus():
    """Without a residual block the period constraints carve out exactly the
    exact forms, of dimension l(l+1)/2, so the constraint rank is
    n^2 - l(l+1)/2."""
    cases = [
        (2, [(I, E(0)), (E(0), I)]),                                  # l = 2
        (3, [(I, E(0), E(0)), (E(0), I, E(0)), (E(0), E(0), I)]),     # l = 3
        (2, [(E(1), E(0)), (I, E(0)), (E(0), I)]),                    # k=1 l=1
        (4, [tuple(I if j == p else E(0) for j in range(4))
             for p in range(4)]),                                     # l = 4
    ]
    for n, gens in cases:
        lat = _lat(n, gens)
        nf = normal_form(lat)
        assert nf.is_semi_torus()
        stokes = stokes_constraints(lat)
        expected_solutions = nf.l * (nf.l + 1) // 2
        assert stokes.solution_dim == expected_solutions
        assert stokes.rank == n * n - expected_solutions
        dim = cone_dimension(nf, stokes)
        assert dim.value == n * n - expected_solutions


def test_stokes_solutions_are_exact_forms():
    """Brute-force check: every period-constraint solution has vanishing
    exactness defect in adapted coordinates, and vice versa."""
    lat = _lat(2, [(I, E(0)), (E(0), I)])
    nf = normal_form(lat)
    stokes = stokes_constraints(lat)
    for vec in nullspace_basis(stokes.rows):
        sol = hermitian_from_params([float(e.re) for e in vec], stokes.n)
        adapted = to_adapted(sol, nf)
        assert exactness_defect(adapted, nf) < 1e-9
        assert is_exact_form(adapted, nf)


# ---------------------------------------------------------------------------
# the integer Stokes rows and T.g against the ExactScalar forms they replace
# ---------------------------------------------------------------------------


def _oracle_stokes_rows(lattice):
    """The period rows built with ``ExactScalar`` products, as the library
    built them before it cleared the generators to Gaussian integers."""
    n = lattice.n
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    rows = []
    gens = lattice.generators
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            lam, mu = gens[a], gens[b]
            row = []
            for p in range(n):
                prod = lam[p] * mu[p].conjugate()
                row.append(E(prod.im))
            xs, ys = [], []
            for p, q in pairs:
                fwd = lam[p] * mu[q].conjugate()
                rev = lam[q] * mu[p].conjugate()
                xs.append(E(fwd.im + rev.im))
                ys.append(E(fwd.re - rev.re))
            rows.append(row + xs + ys)
    return rows


def _oracle_apply(matrix, vec):
    """``matrix . vec`` with ``ExactScalar`` products."""
    return [sum((row[j] * vec[j] for j in range(len(vec))), E(0))
            for row in matrix]


def _clearing_factor(g):
    return math.lcm(*(x.denominator for e in g for x in (e.re, e.im)))


_lattice_parts = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_lattice_entries = st.one_of(st.just(E(0)),
                             st.builds(E, _lattice_parts, _lattice_parts))


@st.composite
def lattices(draw):
    """Gaussian-rational lattices on C2-C6, with denominators up to 4 and
    zero and repeated generators mixed in."""
    n = draw(st.integers(2, 6))
    gens = draw(st.lists(st.lists(_lattice_entries, min_size=n, max_size=n),
                         max_size=2 * n))
    if gens and draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))),
                    list(draw(st.sampled_from(gens))))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), [E(0)] * n)
    return _lat(n, gens)


@given(lattices())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_integer_stokes_rows_and_adapted_generators_match_exact_oracle(lat):
    oracle = _oracle_stokes_rows(lat)
    factors = [_clearing_factor(lat.generators[a]) * _clearing_factor(lat.generators[b])
               for a in range(len(lat.generators))
               for b in range(a + 1, len(lat.generators))]
    stokes = stokes_constraints(lat)
    assert all(type(x) is int for row in stokes.rows for x in row)
    assert [[E(x) for x in row] for row in stokes.rows] == \
        [[e * f for e in row] for row, f in zip(oracle, factors)]
    assert stokes.rank == (matrix_rank(oracle) if oracle else 0)
    nf = normal_form(lat)
    assert nf.adapted_generators == tuple(tuple(_oracle_apply(nf.T, g))
                                          for g in lat.generators)


def test_cone_dimension_frozen_values():
    nf2 = normal_form(_lat(2, [(I, E(0)), (E(0), I)]))
    assert cone_dimension(nf2).value == 1
    nf3 = normal_form(_lat(3, [(I, E(0), E(0)), (E(0), I, E(0)),
                               (E(0), E(0), I)]))
    assert cone_dimension(nf3).value == 3


def test_cone_dimension_not_asserted_with_residual_block():
    nf = normal_form(_lat(2, [(I, E(0))]))
    assert nf.m == 1
    dim = cone_dimension(nf)
    assert dim.value is None
    assert not dim.asserted


def test_pattern_dimension_formula():
    nf = normal_form(_lat(3, [(E(1), E(0), E(0)), (I, E(0), E(0)),
                              (E(0), I, E(0))]))
    k, l = nf.k, nf.l
    assert pattern_dimension(nf) == 9 - (k * k + 2 * k * l + l * (l - 1) // 2)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def test_potential_reproduces_real_block_form():
    lat = _lat(2, [(I, E(0)), (E(0), I)])
    nf = normal_form(lat)
    omega = np.eye(2, dtype=complex)
    pot, residual = build_potential(omega, nf)
    assert float(np.abs(residual).max()) == 0.0
    z = [1 + 2j, -1 + 1j]
    # phi = 2[(Im z1)^2 + (Im z2)^2] = 2[4 + 1]
    assert pot.evaluate(z) == pytest.approx(10.0)
    assert np.allclose(pot.hessian(), omega)


def test_potential_rejects_pattern_violations():
    lat = _lat(2, [(E(1), E(0)), (I, E(0)), (E(0), I)])   # k=1, l=1
    nf = normal_form(lat)
    bad = np.eye(2, dtype=complex)      # nonzero on the k-block
    with pytest.raises(PatternViolation):
        build_potential(bad, nf)
    ok = np.diag([0.0, 1.0]).astype(complex)
    pot, residual = build_potential(ok, nf)
    assert float(np.abs(residual).max()) == 0.0
    assert np.allclose(pot.hessian(), ok)


def test_potential_m_block_residual_structure():
    """With a residual block, mismatch is confined to the k x m corners."""
    lat = _lat(3, [(E(1), E(0), E(0)), (I, E(0), E(0)), (E(0), I, E(0))])
    nf = normal_form(lat)
    assert (nf.k, nf.l, nf.m) == (1, 1, 1)
    rng = rng_for(17, "potential")
    omega = np.zeros((3, 3), dtype=complex)
    # fill only pattern-compatible blocks: ll real, lm, mm hermitian
    omega[1, 1] = rng.uniform(-2, 2)
    w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    omega[1, 2] = w
    omega[2, 1] = w.conjugate()
    omega[2, 2] = rng.uniform(-2, 2)
    km = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    omega[0, 2] = km                     # k x m corner: not representable
    omega[2, 0] = km.conjugate()
    pot, residual = build_potential(omega, nf)
    # residual exactly the k x m corner blocks
    assert residual[0, 2] == pytest.approx(km)
    assert residual[2, 0] == pytest.approx(km.conjugate())
    mask = np.ones((3, 3), dtype=bool)
    mask[0, 2] = mask[2, 0] = False
    assert float(np.abs(residual[mask]).max()) < 1e-12


def test_potential_hessian_identity_randomized():
    """hessian(build_potential(omega)) == omega for pattern-compatible omega
    on a pure real-block lattice."""
    lat = _lat(3, [(I, E(0), E(0)), (E(0), I, E(0)), (E(0), E(0), I)])
    nf = normal_form(lat)
    rng = rng_for(23, "hess")
    for _ in range(25):
        sym = np.array([[rng.uniform(-3, 3) for _ in range(3)]
                        for _ in range(3)])
        omega = (sym + sym.T) / 2.0
        pot, residual = build_potential(omega.astype(complex), nf)
        assert float(np.abs(residual).max()) < 1e-13
        assert np.allclose(pot.hessian(), omega, atol=1e-13)


def test_exactness_defect_flags_k_blocks():
    lat = _lat(2, [(E(1), E(0)), (I, E(0)), (E(0), I)])
    nf = normal_form(lat)
    good = np.diag([0.0, 2.0]).astype(complex)
    assert is_exact_form(good, nf)
    bad = np.eye(2, dtype=complex)
    assert not is_exact_form(bad, nf)
    with pytest.raises(NotSemiTorus):
        is_exact_form(good, normal_form(_lat(2, [(I, E(0))])))


# ---------------------------------------------------------------------------
# hyperbolic family of inequivalent classes
# ---------------------------------------------------------------------------


def _hyperbolic(r: float) -> np.ndarray:
    return np.array([[math.cosh(r), 1j * math.sinh(r)],
                     [-1j * math.sinh(r), math.cosh(r)]], dtype=complex)


def test_hyperbolic_family_is_pd_det_one():
    for r in (-2, -1, 0, 1, 2):
        H = _hyperbolic(r)
        assert np.allclose(H, H.conj().T)
        eigs = np.linalg.eigvalsh(H)
        assert float(eigs.min()) > 0.0
        assert abs(np.linalg.det(H).real - 1.0) < 1e-12


def test_hyperbolic_classes_pairwise_distinct():
    lat = _lat(2, [(I, E(0)), (E(0), I)])
    nf = normal_form(lat)
    rs = (-2, -1, 0, 1, 2)
    for i, r in enumerate(rs):
        for s in rs[i + 1:]:
            assert not class_equal(_hyperbolic(r), _hyperbolic(s), nf)


def test_class_invariant_under_real_symmetric_shift():
    lat = _lat(2, [(I, E(0)), (E(0), I)])
    nf = normal_form(lat)
    H = _hyperbolic(1.0)
    shift = np.array([[0.7, -0.3], [-0.3, 1.9]], dtype=complex)
    assert class_equal(H, H + shift, nf)
    proj = class_project(H, nf)
    assert np.allclose(proj, np.array([[0, 1j * math.sinh(1.0)],
                                       [-1j * math.sinh(1.0), 0]]))


def test_to_adapted_is_identity_for_standard_torus():
    lat = _lat(2, [(I, E(0)), (E(0), I)])
    nf = normal_form(lat)
    H = _hyperbolic(0.5)
    assert np.allclose(to_adapted(H, nf), H)
