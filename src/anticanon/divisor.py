"""The determinant divisor of a field basis and tangency of fields to it.

For an affine basis the divisor section is ``det S`` with ``S`` the component
matrix.  On P^n the section is the determinant of the ``(n+1) x (n+1)`` matrix
whose first row is ``(z0, ..., zn)`` and whose remaining rows hold the linear
forms of the basis fields; it is homogeneous of degree ``n+1`` and restricts
on each chart to the affine determinant there.

A field ``v`` is tangent to the zero set of ``f`` when ``f`` divides ``v(f)``.
For global fields on P^n the test runs in homogeneous coordinates, where it
does not depend on the choice of lift: shifting by the Euler field changes
``v(F)`` by a multiple of ``F``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateBasis
from .exact import (
    Poly,
    poly_det,
    poly_divmod,
    squarefree_decompose,
)
from .fields import FieldBasis, ProjectiveBasis


@dataclass(frozen=True)
class DivisorSection:
    """A monic section with its squarefree decomposition."""

    section: Poly                       # monic in graded-lex order
    factors: tuple[tuple[Poly, int], ...]
    homogeneous: bool                   # True for sections on P^n
    ambient_dim: int

    @property
    def degree(self) -> int:
        return self.section.total_degree()

    def is_reduced(self) -> bool:
        """True when no factor repeats (all multiplicities are one)."""
        return all(m == 1 for _f, m in self.factors)

    def is_empty(self) -> bool:
        """True when the section is a nonzero constant (no zero locus)."""
        return self.section.is_constant()

    def reassembled(self) -> Poly:
        """Product of the factors with multiplicity; equals the section."""
        out = Poly.one()
        for f, m in self.factors:
            out = out * f ** m
        return out


def _decompose(raw: Poly, homogeneous: bool, ambient_dim: int) -> DivisorSection:
    if raw.is_zero():
        raise DegenerateBasis("determinant section vanishes identically")
    section = raw.monic()
    _scale, factors = squarefree_decompose(section)
    return DivisorSection(section, factors, homogeneous, ambient_dim)


def divisor_affine(basis: FieldBasis) -> DivisorSection:
    """Monic determinant section of an affine basis, with decomposition."""
    basis.require_nondegenerate()
    return _decompose(basis.det_section, False, basis.chart.dim)


def projective_section(basis: ProjectiveBasis) -> Poly:
    """Raw homogeneous determinant section on P^n (may be zero)."""
    n = basis.n
    top = [Poly.var(f"z{j}") for j in range(n + 1)]
    rows = [top] + [list(f.forms) for f in basis.fields]
    return poly_det(rows)


def divisor_projective(basis: ProjectiveBasis) -> DivisorSection:
    """Monic homogeneous section of degree ``n+1`` on P^n."""
    raw = projective_section(basis)
    if raw.is_zero():
        raise DegenerateBasis("homogeneous determinant section vanishes "
                              "identically; the fields are degenerate")
    sec = _decompose(raw, True, basis.n)
    assert sec.section.is_homogeneous() and sec.degree == basis.n + 1
    return sec


def dehomogenize(p: Poly, index: int) -> Poly:
    """Set ``z_index = 1``; chart coordinates keep their homogeneous names."""
    return p.substitute({f"z{index}": Poly.one()})


@dataclass(frozen=True)
class TangencyReport:
    """Per-field tangency verdicts with division witnesses."""

    tangent: tuple[bool, ...]
    derivatives: tuple[Poly, ...]   # v_k(f) for each field
    remainders: tuple[Poly, ...]    # division remainder of v_k(f) by f

    @property
    def all_tangent(self) -> bool:
        return all(self.tangent)

    def failing_indices(self) -> list[int]:
        return [k for k, ok in enumerate(self.tangent) if not ok]


def tangency_affine(basis: FieldBasis, section: DivisorSection) -> TangencyReport:
    """Does each basis field preserve the affine divisor ``{f = 0}``?"""
    f = section.section
    verdicts, derivs, rems = [], [], []
    for v in basis.fields:
        vf = v.apply_to(f)
        _q, r = poly_divmod(vf, f)
        verdicts.append(r.is_zero())
        derivs.append(vf)
        rems.append(r)
    return TangencyReport(tuple(verdicts), tuple(derivs), tuple(rems))


def tangency_projective(basis: ProjectiveBasis,
                        section: DivisorSection) -> TangencyReport:
    """Homogeneous tangency test on P^n, independent of the field lifts."""
    f = section.section
    verdicts, derivs, rems = [], [], []
    for v in basis.fields:
        vf = Poly.zero()
        for j in range(basis.n + 1):
            vf = vf + v.forms[j] * f.derivative(f"z{j}")
        _q, r = poly_divmod(vf, f)
        verdicts.append(r.is_zero())
        derivs.append(vf)
        rems.append(r)
    return TangencyReport(tuple(verdicts), tuple(derivs), tuple(rems))


def format_factors(section: DivisorSection) -> list[dict]:
    """JSON-friendly factor list."""
    return [{"poly": str(f), "mult": m} for f, m in section.factors]
