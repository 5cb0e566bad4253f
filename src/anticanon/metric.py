"""The hermitian metric of a field basis, with exact and numeric diagnostics.

From a nondegenerate basis with component matrix ``S`` the metric is
``g = sigma sigma*`` with ``sigma = S^{-1} = A / D``, where ``A = adj S`` and
``D = det S`` are polynomial; ``g_{ij} = sum_k sigma_ik conj(sigma_jk)``.  On
the complement of the determinant divisor ``{D = 0}`` this is a smooth
positive-definite hermitian metric.

Symbolic facts carried by this module:

* the Kähler defect ``r_{ikl} = d(sigma_ik)/dz_l - d(sigma_lk)/dz_i``
  vanishes identically exactly when the metric is Kähler.  It equals
  ``N_{ikl} / D^2`` with the polynomial numerator
  ``N = (d_l A_ik - d_i A_lk) D - (A_ik d_l D - A_lk d_i D)``, so deciding
  whether it vanishes needs no gcd;
* ``det g = |det sigma|^2`` holds exactly, so ``log det g`` is pluriharmonic
  off the divisor and the Ricci curvature vanishes there.

Numeric probes (a curvature finite-difference probe and a divisor-approach
arc-length probe) cross-check those facts at floating-point resolution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

from ._numpy import np
from .errors import BadDirection, NotHermitian, OnDivisor
from .exact import ExactScalar, Poly, RatFunc, as_scalar
from .fields import FieldBasis
from .flows import compile_poly, restrict_to_line
from .linsolve import matrix_det
from .sampling import rational_point

PointLike = Sequence["complex | float | int | Fraction | ExactScalar"]


def _compile_ratfunc(r: RatFunc, variables: Sequence[str]):
    """Numerator and denominator evaluators; ``num(z) / den(z)`` equals
    ``r.eval_complex`` at the same point."""
    return compile_poly(r.num, variables), compile_poly(r.den, variables)


def _to_exact_point(point: PointLike) -> "list[ExactScalar] | None":
    out = []
    for entry in point:
        if isinstance(entry, (int, Fraction, ExactScalar)):
            out.append(as_scalar(entry))
        else:
            return None
    return out


def _to_complex_point(point: PointLike) -> list[complex]:
    out = []
    for entry in point:
        if isinstance(entry, ExactScalar):
            out.append(entry.to_complex())
        elif isinstance(entry, Fraction):
            out.append(complex(float(entry)))
        else:
            out.append(complex(entry))
    return out


# ---------------------------------------------------------------------------
# hermitian matrices (numeric)
# ---------------------------------------------------------------------------


class HermitianMatrix:
    """A square complex matrix constrained to be hermitian within tolerance."""

    def __init__(self, data, tol: float = 1e-12):
        arr = np.array(data, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("hermitian matrix must be square")
        scale = max(1.0, float(np.linalg.norm(arr)))
        deviation = float(np.linalg.norm(arr - arr.conj().T))
        if deviation > tol * scale:
            raise NotHermitian(f"deviation from hermitian symmetry {deviation:.3e} "
                               f"exceeds tolerance {tol:.1e} (scale {scale:.3e})")
        self.data = 0.5 * (arr + arr.conj().T)
        self.herm_deviation = deviation

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def is_positive_definite(self) -> bool:
        try:
            np.linalg.cholesky(self.data)
            return True
        except np.linalg.LinAlgError:
            return False

    def det(self) -> float:
        return float(np.linalg.det(self.data).real)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def __getitem__(self, key):
        return self.data[key]

    def to_lists(self) -> list[list[complex]]:
        return [[complex(e) for e in row] for row in self.data]

    def __repr__(self):
        return f"<HermitianMatrix n={self.n}>"


def positive_definite(matrix: HermitianMatrix) -> bool:
    """Cholesky-based positive definiteness check."""
    if not isinstance(matrix, HermitianMatrix):
        matrix = HermitianMatrix(matrix)
    return matrix.is_positive_definite()


# ---------------------------------------------------------------------------
# the metric model
# ---------------------------------------------------------------------------


DIVISOR_FLOOR = 1e-9


@dataclass
class MetricModel:
    """Symbolic metric data attached to a nondegenerate affine basis."""

    basis: FieldBasis

    @property
    def sigma(self) -> list[list[RatFunc]]:
        return self.basis.sigma

    @property
    def det_section(self) -> Poly:
        return self.basis.det_section

    @property
    def chart(self):
        return self.basis.chart

    @property
    def n(self) -> int:
        return self.basis.chart.dim

    # -- evaluation helpers -------------------------------------------------
    @functools.cached_property
    def _det_eval(self):
        return compile_poly(self.det_section, self.chart.variables)

    @functools.cached_property
    def _sigma_eval(self):
        return [[_compile_ratfunc(e, self.chart.variables) for e in row]
                for row in self.sigma]

    def _complex_point(self, point: PointLike) -> list[complex]:
        values = _to_complex_point(point)
        if len(values) != self.n:
            raise ValueError("point dimension mismatch")
        return values

    def det_value(self, point: PointLike) -> complex:
        return self._det_eval(self._complex_point(point))

    def divisor_clearance(self, point: PointLike) -> float:
        """|det S(p)| relative to the floor scale ``(1 + |p|)^deg``."""
        values = self._complex_point(point)
        norm = math.sqrt(sum(abs(v) ** 2 for v in values))
        deg = max(self.det_section.total_degree(), 0)
        return abs(self._det_eval(values)) / (1.0 + norm) ** deg

    def sigma_values(self, z: Sequence[complex]) -> list[list[complex]]:
        """Entries of sigma at a point given as chart-ordered complex values."""
        return [[num(z) / den(z) for num, den in row] for row in self._sigma_eval]

    def sigma_value(self, point: PointLike) -> np.ndarray:
        return np.array(self.sigma_values(self._complex_point(point)),
                        dtype=complex)

    def sigma_exact(self, point: Sequence[ExactScalar]) -> list[list[ExactScalar]]:
        pm = dict(zip(self.chart.variables, point))
        return [[e.eval_exact(pm) for e in row] for row in self.sigma]


def build_metric(basis: FieldBasis) -> MetricModel:
    """Invert the component matrix; raises DegenerateBasis when singular."""
    basis.sigma  # triggers the nondegeneracy check
    return MetricModel(basis)


def metric_at(model: MetricModel, point: PointLike,
              floor: float = DIVISOR_FLOOR) -> HermitianMatrix:
    """Evaluate ``g = sigma sigma*`` at a point safely off the divisor.

    Raises :class:`OnDivisor` when ``|det S(p)|`` falls below
    ``floor * (1 + |p|)^deg``, where deg is the degree of the determinant.
    """
    clearance = model.divisor_clearance(point)
    if clearance <= floor:
        raise OnDivisor(f"point too close to the divisor "
                        f"(clearance {clearance:.3e} <= floor {floor:.1e})")
    sig = model.sigma_value(point)
    g = sig @ sig.conj().T
    return HermitianMatrix(g, tol=1e-9)


def metric_at_exact(model: MetricModel,
                    point: Sequence[ExactScalar]) -> list[list[ExactScalar]]:
    """Exact metric matrix at an exact rational point off the divisor."""
    pm = dict(zip(model.chart.variables, point))
    det_val = model.det_section.eval_exact(pm)
    if det_val.is_zero():
        raise OnDivisor("exact evaluation point lies on the divisor")
    sig = model.sigma_exact(point)
    n = model.n
    return [[sum((sig[i][k] * sig[j][k].conjugate() for k in range(n)),
                 ExactScalar.zero()) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Kähler defect
# ---------------------------------------------------------------------------


@dataclass
class KahlerDefect:
    """The antisymmetrized derivative tensor of sigma, stored exactly."""

    residuals: dict[tuple[int, int, int], RatFunc]  # keys (i, k, l) with i < l

    @property
    def is_zero(self) -> bool:
        return not self.residuals

    def witness(self) -> "tuple[tuple[int, int, int], RatFunc] | None":
        if not self.residuals:
            return None
        key = min(self.residuals)
        return key, self.residuals[key]

    def sample_max(self, model: MetricModel, points: Sequence[PointLike]) -> float:
        """Largest residual magnitude over sample points (skipping poles)."""
        variables = model.chart.variables
        compiled = [_compile_ratfunc(r, variables) for r in self.residuals.values()]
        worst = 0.0
        for p in points:
            z = model._complex_point(p)
            for num, den in compiled:
                try:
                    worst = max(worst, abs(num(z) / den(z)))
                except ZeroDivisionError:
                    continue
        return worst


def kahler_defect(model: MetricModel) -> KahlerDefect:
    """Exact symmetry defect ``d(sigma_ik)/dz_l - d(sigma_lk)/dz_i`` for i < l.

    Each residual is decided on its polynomial numerator over ``D^2``; only
    the nonzero ones are reduced to lowest terms.
    """
    n = model.n
    variables = model.chart.variables
    adj, det = model.basis.adjugate
    det_d = [det.derivative(v) for v in variables]
    det_sq = det * det
    residuals: dict[tuple[int, int, int], RatFunc] = {}
    for i in range(n):
        for l in range(i + 1, n):
            for k in range(n):
                a_ik, a_lk = adj[i][k], adj[l][k]
                z_l, z_i = variables[l], variables[i]
                num = ((a_ik.derivative(z_l) - a_lk.derivative(z_i)) * det
                       - (a_ik * det_d[l] - a_lk * det_d[i]))
                if not num.is_zero():
                    residuals[(i, k, l)] = RatFunc(num, det_sq)
    return KahlerDefect(residuals)


# ---------------------------------------------------------------------------
# Ricci flatness
# ---------------------------------------------------------------------------


@dataclass
class RicciCertificate:
    """Exact check of ``det g = |det sigma|^2`` at random rational points."""

    points_checked: int
    all_equal: bool
    failures: list[int]


def ricci_certificate(model: MetricModel, rng: Random, count: int = 20,
                      max_tries: int = 400) -> RicciCertificate:
    """Verify the determinant identity behind Ricci flatness, exactly.

    ``log det g = log |det sigma|^2`` is pluriharmonic wherever
    ``det sigma`` is holomorphic and nonvanishing.  Since ``g = sigma sigma*``
    and ``det(sigma sigma*) = |det sigma|^2`` holds for every matrix, the
    check's only content is ``|det sigma(p) * det S(p)| = 1`` at each sampled
    point ``p``.
    """
    n = model.n
    checked, failures = 0, []
    tries = 0
    while checked < count and tries < max_tries:
        tries += 1
        point = rational_point(rng, n, span=6, den=6)
        pm = dict(zip(model.chart.variables, point))
        det_val = model.det_section.eval_exact(pm)
        if det_val.is_zero():
            continue
        g = metric_at_exact(model, point)
        lhs = matrix_det(g)
        det_sigma_val = det_val.inverse()
        rhs = det_sigma_val * det_sigma_val.conjugate()
        if lhs != rhs:
            failures.append(checked)
        checked += 1
    return RicciCertificate(checked, not failures and checked == count, failures)


def ricci_probe(model: MetricModel, point: PointLike, h: float = 1e-4) -> float:
    """Largest mixed derivative of ``log |det S|^(-2)``, by central differences.

    Builds the full matrix of Wirtinger mixed second derivatives of
    ``F = log |det S|^(-2)`` from real-direction central differences and
    returns its max absolute entry.  ``F`` is pluriharmonic for every
    holomorphic ``det S``, so the result is zero up to stencil error for any
    basis: the probe never reads ``g`` and cannot flag a wrong metric.
    """
    base = _to_complex_point(point)
    n = model.n
    det_eval = model._det_eval

    def F(re_im: np.ndarray) -> float:
        val = det_eval([complex(re_im[2 * k], re_im[2 * k + 1])
                        for k in range(n)])
        mag = abs(val)
        if mag == 0.0:
            raise OnDivisor("stencil touched the divisor")
        return -2.0 * math.log(mag)

    x0 = np.empty(2 * n)
    for k, z in enumerate(base):
        x0[2 * k], x0[2 * k + 1] = z.real, z.imag

    def second(u: int, v: int) -> float:
        if u == v:
            e = np.zeros(2 * n)
            e[u] = h
            return (F(x0 + e) - 2.0 * F(x0) + F(x0 - e)) / (h * h)
        eu = np.zeros(2 * n)
        ev = np.zeros(2 * n)
        eu[u] = h
        ev[v] = h
        return (F(x0 + eu + ev) - F(x0 + eu - ev)
                - F(x0 - eu + ev) + F(x0 - eu - ev)) / (4.0 * h * h)

    worst = 0.0
    for p in range(n):
        for q in range(p, n):
            a_p, b_p, a_q, b_q = 2 * p, 2 * p + 1, 2 * q, 2 * q + 1
            re_part = second(a_p, a_q) + second(b_p, b_q)
            im_part = 0.0 if p == q else second(a_p, b_q) - second(b_p, a_q)
            worst = max(worst, 0.25 * math.hypot(re_part, im_part))
    return worst


# ---------------------------------------------------------------------------
# completeness probe
# ---------------------------------------------------------------------------


@functools.cache
def _gauss_legendre() -> tuple:
    """16-point Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(16)


FINITE_RATIO = 0.75
DIVERGENT_FLOOR = 1e-3
TAIL_BLOCKS = 5


@dataclass
class CompletenessResult:
    """Dyadic-block arc lengths along a straight ray into the divisor."""

    verdict: str                 # "finite" | "divergent" | "inconclusive"
    lengths: list[float]         # L_j over t in [2^-(j+1), 2^-j]
    total: float
    point: list[complex]
    direction: list[complex]

    def ratios(self) -> list[float]:
        return [self.lengths[j + 1] / self.lengths[j]
                for j in range(len(self.lengths) - 1)]


def completeness_probe(model: MetricModel, point: PointLike,
                       direction: PointLike, depth: int = 14) -> CompletenessResult:
    """Arc length of ``t -> p + t v`` toward ``t = 0`` in dyadic blocks.

    ``p`` must lie on the divisor and ``v`` must be transverse to it there;
    a direction along which the determinant vanishes identically raises
    :class:`BadDirection`.  The verdict is a heuristic: sustained geometric
    decay of the block lengths (ratio below 0.75) reads as a finite-length
    approach (incompleteness), while block lengths staying above 1e-3 read
    as logarithmic-or-worse divergence.
    """
    exact_p = _to_exact_point(point)
    exact_v = _to_exact_point(direction)
    if exact_p is not None and exact_v is not None:
        pm = dict(zip(model.chart.variables, exact_p))
        if not model.det_section.eval_exact(pm).is_zero():
            raise OnDivisor("completeness probe needs a start point on the "
                            "divisor; the determinant section is nonzero there")
        line = restrict_to_line(model.det_section, model.chart.variables,
                                exact_p, exact_v)
        if line.is_zero():
            raise BadDirection("determinant vanishes identically along the ray")
    else:
        # float inputs: check the start and test the line numerically
        if model.divisor_clearance(_to_complex_point(point)) > 1e-6:
            raise OnDivisor("completeness probe needs a start point on the "
                            "divisor; the determinant section is nonzero there")
        values = []
        for t in (0.371, 0.613, 0.839):
            z = [complex(a) + t * complex(b)
                 for a, b in zip(_to_complex_point(point), _to_complex_point(direction))]
            values.append(abs(model.det_value(z)))
        if max(values) < 1e-10:
            raise BadDirection("determinant numerically vanishes along the ray")

    p = np.array(_to_complex_point(point))
    v = np.array(_to_complex_point(direction))

    def speed(t: float) -> float:
        z = p + t * v
        sig = np.array(model.sigma_values([complex(c) for c in z]), dtype=complex)
        return float(np.linalg.norm(sig.conj().T @ v))

    nodes, weights = _gauss_legendre()
    lengths = []
    for j in range(depth):
        a, b = 2.0 ** (-j - 1), 2.0 ** (-j)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        block = sum(w * speed(mid + half * x)
                    for x, w in zip(nodes, weights)) * half
        lengths.append(float(block))

    tail = lengths[-TAIL_BLOCKS:]
    ratios = [lengths[k + 1] / lengths[k] for k in range(len(lengths) - 1)
              if lengths[k] > 0.0]
    tail_ratios = ratios[-TAIL_BLOCKS:]
    if tail_ratios and all(r < FINITE_RATIO for r in tail_ratios):
        verdict = "finite"
    elif tail and min(tail) > DIVERGENT_FLOOR:
        verdict = "divergent"
    else:
        verdict = "inconclusive"
    return CompletenessResult(verdict, lengths, float(sum(lengths)),
                              [complex(c) for c in p], [complex(c) for c in v])
