"""Determinant divisor sections: factorization, tangency, chart consistency."""

import random

import pytest

from anticanon.divisor import (
    dehomogenize,
    divisor_affine,
    divisor_projective,
    format_factors,
    tangency_affine,
    tangency_projective,
)
from anticanon.errors import DegenerateBasis
from anticanon.exact import ExactScalar, Poly, exact_divide
from anticanon.fields import FieldBasis, ProjectiveBasis, affine_field, projective_field
from anticanon.polyparse import parse_poly


def _toric_p2():
    return ProjectiveBasis([projective_field(2, ("0", "z1", "0")),
                            projective_field(2, ("0", "0", "z2"))])


def _nilpotent_p2():
    return ProjectiveBasis([projective_field(2, ("z2", "0", "0")),
                            projective_field(2, ("z1", "z2", "0"))])


def test_toric_section_reduced():
    sec = divisor_projective(_toric_p2())
    assert str(sec.section) == "z0*z1*z2"
    assert sec.degree == 3
    assert sec.is_reduced()
    assert format_factors(sec) == [{"poly": "z0*z1*z2", "mult": 1}]
    assert sec.reassembled() == sec.section


def test_nilpotent_section_cube():
    sec = divisor_projective(_nilpotent_p2())
    assert sec.section == parse_poly("z2^3")
    assert not sec.is_reduced()
    assert format_factors(sec) == [{"poly": "z2", "mult": 3}]
    assert dict(sec.factors) == {parse_poly("z2"): 3}


def test_degenerate_projective_basis_raises():
    pencil = ProjectiveBasis([projective_field(2, ("z1", "0", "0")),
                              projective_field(2, ("z2", "0", "0"))])
    with pytest.raises(DegenerateBasis):
        divisor_projective(pencil)


def test_affine_divisor_and_empty():
    basis = FieldBasis([affine_field(2, ("1", "0")),
                        affine_field(2, ("0", "z1^2"))])
    sec = divisor_affine(basis)
    assert sec.section == parse_poly("z1^2")
    assert not sec.is_empty()

    const = FieldBasis([affine_field(2, ("1", "0")),
                        affine_field(2, ("0", "1"))])
    empty = divisor_affine(const)
    assert empty.is_empty()
    assert empty.degree == 0


def test_projective_section_is_homogeneous_of_right_degree():
    basis = ProjectiveBasis([projective_field(2, ("z1 + z2", "2*z0", "0")),
                             projective_field(2, ("0", "z0 - z1", "z2"))])
    sec = divisor_projective(basis)
    assert sec.section.is_homogeneous()
    assert sec.degree == 3          # always n + 1 on P^n


def _random_linear_projective(rng: random.Random, n: int) -> ProjectiveBasis:
    """n global fields on P^n whose forms have Gaussian-integer coefficients."""
    def form():
        return sum((Poly.var(f"z{j}").scale(ExactScalar(rng.randint(-3, 3),
                                                        rng.randint(-3, 3)))
                    for j in range(n + 1)), Poly.zero())
    return ProjectiveBasis([projective_field(n, [form() for _ in range(n + 1)])
                            for _ in range(n)])


def test_dehomogenization_matches_chart_determinant():
    """Setting z_i = 1 in the P^n section recovers the chart determinant.

    The chart determinant is nonzero on every chart, so any chart carries a
    nondegenerate localization.
    """
    rng = random.Random("dehomogenize")
    bases = [_nilpotent_p2()] + [_random_linear_projective(rng, n)
                                 for n in (1, 2, 3) for _ in range(4)]
    for basis in bases:
        sec = divisor_projective(basis)
        for i in range(basis.n + 1):
            local = basis.localize(i)
            assert not local.det_section.is_zero()
            # both are monic up to normalization; compare monic forms
            assert dehomogenize(sec.section, i).monic() == \
                divisor_affine(local).section


def test_euler_applied_scales_by_degree():
    sec = divisor_projective(_nilpotent_p2())
    f = sec.section
    total = Poly.zero()
    for j in range(3):
        total = total + Poly.var(f"z{j}") * f.derivative(f"z{j}")
    assert total == f.scale(ExactScalar(sec.degree))


def test_tangency_affine_frozen():
    basis = FieldBasis([affine_field(2, ("1", "0")),
                        affine_field(2, ("0", "z1^2"))])
    sec = divisor_affine(basis)
    rep = tangency_affine(basis, sec)
    assert rep.tangent == (False, True)
    assert rep.failing_indices() == [0]
    assert str(rep.remainders[0]) == "2*z1"


def test_tangency_projective_all_tangent():
    basis = _toric_p2()
    rep = tangency_projective(basis, divisor_projective(basis))
    assert rep.all_tangent
    assert rep.tangent == (True, True)


def test_tangency_projective_is_lift_independent():
    """Adding an Euler multiple to a field does not change tangency."""
    basis = _nilpotent_p2()
    sec = divisor_projective(basis)
    shifted = ProjectiveBasis([
        projective_field(2, ("z2 + z0", "z1", "z2")),    # field + Euler
        projective_field(2, ("z1", "z2", "0")),
    ])
    rep0 = tangency_projective(basis, sec)
    rep1 = tangency_projective(shifted, sec)
    assert rep0.tangent == rep1.tangent == (True, True)


def test_tangency_divides_exactly_when_tangent():
    basis = _toric_p2()
    sec = divisor_projective(basis)
    rep = tangency_projective(basis, sec)
    for deriv in rep.derivatives:
        if deriv.is_zero():
            continue
        q = exact_divide(deriv, sec.section)
        assert q * sec.section == deriv
