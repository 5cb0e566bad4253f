"""Charts, holomorphic polynomial vector fields, and field bases.

An affine chart on C^n uses variables ``z1..zn``.  A projective space P^n is
covered by charts ``U_k = {z_k != 0}``; the chart ``U_k`` uses the variables
``z_j`` (``j != k``), standing for the ratios ``z_j / z_k``.

A global holomorphic field on P^n is stored as ``n+1`` linear forms
``(l^0, ..., l^n)`` in the homogeneous coordinates, acting as
``sum_j l^j d/dz_j`` on any lift.  Adding a multiple of the Euler field
(``l^j = c * z_j``) does not change the field on P^n; all comparisons and
brackets therefore happen after localizing to a chart, which kills that
ambiguity.

Chart data on P^n comes from the homogeneous section (``divisor.py``): the
determinant of the basis localized to ``U_k`` is that section with
``z_k = 1``, up to a constant factor.  It is therefore nonzero on every
chart, and a chart's divisor is read off the section, not decomposed again.

The inverse ``sigma`` of a basis's component matrix ``S`` is kept as the
polynomial pair ``(adj S, det S)`` from fraction-free elimination; the
reduced entries ``adj S / det S`` are formed once, for output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ChartMismatch, DegenerateBasis
from .exact import (
    ExactScalar,
    Poly,
    RatFunc,
    as_scalar,
    poly_adjugate,
    poly_det,
    poly_rank,
)
from .linsolve import LinearSolution, solve_linear
from .polyparse import parse_poly


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """A coordinate chart: all of C^n, or the ``U_index`` chart of P^n."""

    kind: str                 # "affine" | "projective"
    dim: int                  # complex dimension n of the chart
    index: int | None         # which U_k, for projective charts
    variables: tuple[str, ...]

    @staticmethod
    def affine(n: int) -> "Chart":
        if n < 1:
            raise ValueError("dimension must be positive")
        return Chart("affine", n, None, tuple(f"z{k}" for k in range(1, n + 1)))

    @staticmethod
    def projective(n: int, index: int) -> "Chart":
        if n < 1:
            raise ValueError("dimension must be positive")
        if not 0 <= index <= n:
            raise ValueError("chart index out of range")
        variables = tuple(f"z{j}" for j in range(n + 1) if j != index)
        return Chart("projective", n, index, variables)

    def describe(self) -> str:
        if self.kind == "affine":
            return f"C^{self.dim}"
        return f"P^{self.dim} chart U{self.index}"


# ---------------------------------------------------------------------------
# chart-level vector fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorField:
    """Polynomial vector field on a chart: one component per chart variable."""

    chart: Chart
    components: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise ValueError("component count must match chart dimension")

    # -- algebra ------------------------------------------------------------
    def _check(self, other: "VectorField"):
        if self.chart != other.chart:
            raise ChartMismatch("vector fields live on different charts")

    def __add__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField(self.chart, tuple(a + b for a, b in
                                             zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        self._check(other)
        return VectorField(self.chart, tuple(a - b for a, b in
                                             zip(self.components, other.components)))

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, tuple(-a for a in self.components))

    def scale(self, c) -> "VectorField":
        c = as_scalar(c)
        return VectorField(self.chart, tuple(p.scale(c) for p in self.components))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    # -- action -------------------------------------------------------------
    def apply_to(self, f: Poly) -> Poly:
        """Directional derivative ``v(f) = sum_k v^k df/dx_k``."""
        total = Poly.zero()
        for var, comp in zip(self.chart.variables, self.components):
            total = total + comp * f.derivative(var)
        return total

    def __str__(self):
        pieces = []
        for var, comp in zip(self.chart.variables, self.components):
            if comp.is_zero():
                continue
            pieces.append(f"({comp}) d{var[1:]}" if not comp.is_constant() or
                          not comp.constant_value().is_one() else f"d{var[1:]}")
        return " + ".join(pieces) if pieces else "0"


def bracket(v: VectorField, w: VectorField) -> VectorField:
    """Lie bracket ``[v, w]^k = v(w^k) - w(v^k)``."""
    if v.chart != w.chart:
        raise ChartMismatch("bracket of fields on different charts")
    comps = tuple(v.apply_to(wk) - w.apply_to(vk)
                  for vk, wk in zip(v.components, w.components))
    return VectorField(v.chart, comps)


# ---------------------------------------------------------------------------
# projective (global) fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectiveField:
    """Global holomorphic field on P^n: ``n+1`` linear forms in ``z0..zn``."""

    n: int
    forms: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.forms) != self.n + 1:
            raise ValueError("need n+1 component forms")
        allowed = {f"z{j}" for j in range(self.n + 1)}
        for form in self.forms:
            if form.is_zero():
                continue
            if not set(form.vars) <= allowed:
                raise ValueError("forms must use the homogeneous coordinates")
            if not (form.is_homogeneous() and form.total_degree() == 1):
                raise ValueError("components of a global field on P^n must be "
                                 "linear forms in the homogeneous coordinates")

    def localize(self, index: int) -> VectorField:
        """Restrict to the chart ``U_index``.

        In the ratio coordinates ``x_j = z_j / z_index`` the field acts as
        ``x_j' = l^j|_{z_index=1} - x_j * l^index|_{z_index=1}``.
        """
        chart = Chart.projective(self.n, index)
        sub = {f"z{index}": Poly.one()}
        l_i = self.forms[index].substitute(sub)
        comps = []
        for j in range(self.n + 1):
            if j == index:
                continue
            x_j = Poly.var(f"z{j}")
            comps.append(self.forms[j].substitute(sub) - x_j * l_i)
        return VectorField(chart, tuple(comps))


def euler_field(n: int) -> ProjectiveField:
    """The Euler field ``sum z_j d/dz_j``, trivial on P^n."""
    return ProjectiveField(n, tuple(Poly.var(f"z{j}") for j in range(n + 1)))


# ---------------------------------------------------------------------------
# monomial coordinates for span questions
# ---------------------------------------------------------------------------


Monomial = tuple[tuple[str, int], ...]  # ((var, exp), ...) with positive exps


def _monomial_of(variables: tuple[str, ...], exp: tuple[int, ...]) -> Monomial:
    return tuple((v, e) for v, e in zip(variables, exp) if e)


def _format_mono(mono: Monomial) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono) or "1"


def _field_coordinates(fields: Sequence[VectorField]) -> tuple[list, list[list[ExactScalar]]]:
    """Write fields as exact coordinate vectors over (component, monomial) slots."""
    chart = fields[0].chart
    keys: set[tuple[int, Monomial]] = set()
    tables = []
    for f in fields:
        if f.chart != chart:
            raise ChartMismatch("fields live on different charts")
        table: dict[tuple[int, Monomial], ExactScalar] = {}
        for k, comp in enumerate(f.components):
            for exp, c in comp.terms.items():
                key = (k, _monomial_of(comp.vars, exp))
                table[key] = c
                keys.add(key)
        tables.append(table)
    key_list = sorted(keys, key=lambda t: (t[0],
                                           sum(e for _, e in t[1]),
                                           t[1]))
    vectors = [[table.get(key, ExactScalar.zero()) for key in key_list]
               for table in tables]
    return key_list, vectors


@dataclass
class SpanResult:
    """Outcome of a constant-coefficient span-membership test."""

    coefficients: tuple[ExactScalar, ...] | None
    certificate: str | None

    @property
    def in_span(self) -> bool:
        return self.coefficients is not None


def span_membership(target: VectorField, fields: Sequence[VectorField]) -> SpanResult:
    """Decide ``target = sum c_k fields[k]`` with constant coefficients."""
    everything = list(fields) + [target]
    key_list, vectors = _field_coordinates(everything)
    cols = vectors[:-1]
    rhs = vectors[-1]
    rows = [[col[r] for col in cols] for r in range(len(key_list))]
    sol: LinearSolution = solve_linear(rows, rhs)
    if sol.consistent:
        return SpanResult(tuple(sol.particular), None)
    # point at a monomial slot the candidate fields cannot produce, if any
    variables = target.chart.variables
    for r, (k, mono) in enumerate(key_list):
        if all(rows[r][c].is_zero() for c in range(len(cols))) and not rhs[r].is_zero():
            return SpanResult(None, f"component d{variables[k][1:]} carries "
                                    f"monomial {_format_mono(mono)} outside the span")
    return SpanResult(None, "inconsistent linear system over the monomial slots")


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


class FieldBasis:
    """An ordered family of n polynomial fields on an n-dimensional chart."""

    def __init__(self, fields: Sequence[VectorField]):
        fields = tuple(fields)
        if not fields:
            raise ValueError("empty basis")
        chart = fields[0].chart
        for f in fields:
            if f.chart != chart:
                raise ChartMismatch("basis fields live on different charts")
        if len(fields) != chart.dim:
            raise ValueError("a candidate basis needs exactly dim-many fields")
        self.fields = fields
        self.chart = chart

    def __len__(self):
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    @cached_property
    def component_matrix(self) -> list[list[Poly]]:
        """Row ``i`` holds the components of field ``i``."""
        return [list(f.components) for f in self.fields]

    @cached_property
    def det_section(self) -> Poly:
        """Determinant of the component matrix (not normalized)."""
        return poly_det(self.component_matrix)

    @cached_property
    def generic_rank(self) -> int:
        """Rank of the component matrix over the rational-function field."""
        if not self.det_section.is_zero():
            return self.chart.dim
        return poly_rank(self.component_matrix)

    def require_nondegenerate(self):
        if self.det_section.is_zero():
            raise DegenerateBasis(
                "determinant of the component matrix vanishes identically "
                f"(generic rank {self.generic_rank} < {self.chart.dim})")

    @cached_property
    def adjugate(self) -> tuple[list[list[Poly]], Poly]:
        """``(adj S, det S)`` for the component matrix ``S``."""
        self.require_nondegenerate()
        return poly_adjugate(self.component_matrix)

    @cached_property
    def sigma(self) -> list[list[RatFunc]]:
        """``S^-1 = adj S / det S``, each entry reduced to lowest terms."""
        adj, det = self.adjugate
        return [[RatFunc(a, det) for a in row] for row in adj]

    # -- Lie-algebra structure ---------------------------------------------
    def abelian_witness(self) -> tuple[int, int, VectorField] | None:
        """First non-vanishing pairwise bracket, or None when abelian."""
        for a in range(len(self.fields)):
            for b in range(a + 1, len(self.fields)):
                br = bracket(self.fields[a], self.fields[b])
                if not br.is_zero():
                    return (a, b, br)
        return None

    def is_abelian(self) -> bool:
        return self.abelian_witness() is None

    def subalgebra_witness(self) -> tuple[int, int, VectorField, str] | None:
        """First pairwise bracket outside the span, with its certificate."""
        for a in range(len(self.fields)):
            for b in range(a + 1, len(self.fields)):
                br = bracket(self.fields[a], self.fields[b])
                if br.is_zero():
                    continue
                result = span_membership(br, self.fields)
                if not result.in_span:
                    return (a, b, br, result.certificate or "outside the span")
        return None

    def is_subalgebra(self) -> bool:
        return self.subalgebra_witness() is None


class ProjectiveBasis:
    """n global fields on P^n, handled through chart localizations."""

    def __init__(self, fields: Sequence[ProjectiveField]):
        fields = tuple(fields)
        if not fields:
            raise ValueError("empty basis")
        n = fields[0].n
        for f in fields:
            if f.n != n:
                raise ChartMismatch("fields live on different projective spaces")
        if len(fields) != n:
            raise ValueError(f"a candidate basis on P^{n} needs exactly {n} fields")
        self.fields = fields
        self.n = n

    def __len__(self):
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def localize(self, index: int) -> FieldBasis:
        return FieldBasis([f.localize(index) for f in self.fields])


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------


def affine_field(n: int, components: Iterable[str | Poly]) -> VectorField:
    """Build an affine field from component expressions in ``z1..zn``."""
    chart = Chart.affine(n)
    comps = []
    for c in components:
        p = parse_poly(c, chart.variables) if isinstance(c, str) else c
        comps.append(p)
    return VectorField(chart, tuple(comps))


def projective_field(n: int, forms: Iterable[str | Poly]) -> ProjectiveField:
    """Build a global field on P^n from ``n+1`` linear-form expressions."""
    allowed = tuple(f"z{j}" for j in range(n + 1))
    parsed = []
    for f in forms:
        p = parse_poly(f, allowed) if isinstance(f, str) else f
        parsed.append(p)
    return ProjectiveField(n, tuple(parsed))
