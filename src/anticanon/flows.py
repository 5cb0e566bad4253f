"""Numeric flow machinery: divisor sampling, fixed-step integration, invariance probe.

The invariance probe integrates each basis field from points sampled on the
divisor and watches the scaled section residual
``|f(z(t))| / (1 + |z(t)|^deg f)``; fields whose flows preserve the divisor
keep it at rounding level, fields that push off the divisor drive it up to
order one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Sequence

from ._numpy import np
from .errors import BlowupDetected
from .exact import ExactScalar, Poly
from .fields import FieldBasis, VectorField
from .sampling import generic_point

DEFAULT_STEPS = 1000
DEFAULT_TMAX = 1.0
DEFAULT_BOUND = 1e6
SAMPLE_RADIUS = 6.0
ROOT_TOL = 1e-12


def compile_poly(p: Poly, variables: Sequence[str]) -> Callable[[np.ndarray], complex]:
    """Fast complex evaluator for ``p`` against a fixed variable order."""
    index = [variables.index(v) for v in p.vars]
    terms = [(c.to_complex(), exp) for exp, c in p.terms.items()]

    def evaluate(z: np.ndarray) -> complex:
        total = 0j
        for c, exp in terms:
            t = c
            for j, e in zip(index, exp):
                if e:
                    t *= z[j] ** e
            total += t
        return total

    return evaluate


# ---------------------------------------------------------------------------
# divisor point sampling
# ---------------------------------------------------------------------------


def _restrict_to_line(section: Poly, variables: Sequence[str],
                      base: Sequence[ExactScalar],
                      direction: Sequence[ExactScalar]) -> list[complex]:
    """Exact coefficients of ``t -> f(base + t*direction)`` as complex numbers."""
    t = Poly.var("t")
    sub = {v: Poly.const(p0) + t * Poly.const(d)
           for v, p0, d in zip(variables, base, direction)}
    restricted = section.substitute(sub)
    if restricted.is_zero():
        return []
    deg = restricted.degree_in("t")
    coeffs = [0j] * (deg + 1)
    if restricted.vars == ():
        coeffs[0] = restricted.constant_value().to_complex()
    else:
        for exp, c in restricted.terms.items():
            coeffs[exp[0]] = c.to_complex()
    return coeffs


def _newton_roots(coeffs: list[complex], rng: Random,
                  restarts: int = 24, iters: int = 100) -> list[complex]:
    """All roots of a univariate polynomial by Newton with Maehly deflation.

    Multiple roots converge linearly but still to full working accuracy at
    this iteration budget.
    """
    deg = len(coeffs) - 1
    while deg > 0 and coeffs[deg] == 0:
        deg -= 1
    if deg <= 0:
        return []
    scale = max(abs(c) for c in coeffs[:deg + 1])
    deriv = [k * coeffs[k] for k in range(1, deg + 1)]

    def horner(cs: list[complex], t: complex) -> complex:
        total = 0j
        for c in reversed(cs):
            total = total * t + c
        return total

    roots: list[complex] = []
    for _ in range(deg):
        found = None
        for _attempt in range(restarts):
            t = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            for _k in range(iters):
                val = horner(coeffs[:deg + 1], t)
                dval = horner(deriv, t)
                defl = sum(1.0 / (t - r) for r in roots) if roots else 0.0
                denom = dval - val * defl
                if denom == 0:
                    break
                step = val / denom
                t = t - step
                if abs(step) <= 1e-15 * max(1.0, abs(t)):
                    break
            if abs(horner(coeffs[:deg + 1], t)) <= 1e-10 * scale:
                found = t
                break
        if found is None:
            break
        roots.append(found)
    return roots


def sample_divisor_points(section: Poly, variables: Sequence[str], rng: Random,
                          count: int = 5, max_lines: int = 60,
                          radius: float = SAMPLE_RADIUS) -> list[np.ndarray]:
    """Points on ``{section = 0}`` from random rational lines, Newton-polished.

    Lines with exact rational base and direction restrict the section exactly;
    the restricted univariate polynomial is solved numerically and roots are
    accepted when the section residual at the point is below ``1e-12`` and the
    point lies in a moderate ball (keeping later probes well-scaled).
    """
    if section.is_constant():
        return []
    points: list[np.ndarray] = []
    deg = section.total_degree()
    for _line in range(max_lines):
        if len(points) >= count:
            break
        base = generic_point(rng, len(variables), span=2, den=4)
        direction = generic_point(rng, len(variables), span=2, den=4)
        coeffs = _restrict_to_line(section, variables, base, direction)
        if len(coeffs) < 2:
            continue  # line misses the divisor or lies inside it
        b = np.array([e.to_complex() for e in base])
        d = np.array([e.to_complex() for e in direction])
        for t in _newton_roots(coeffs, rng):
            z = b + t * d
            norm = float(np.linalg.norm(z))
            if norm > radius:
                continue
            value = abs(_eval_on(section, variables, z))
            if value < ROOT_TOL * (1.0 + norm ** max(deg, 1)):
                points.append(z)
                if len(points) >= count:
                    break
    return points


def _eval_on(p: Poly, variables: Sequence[str], z: np.ndarray) -> complex:
    return p.eval_complex(dict(zip(variables, (complex(c) for c in z))))


# ---------------------------------------------------------------------------
# fixed-step integration
# ---------------------------------------------------------------------------


def integrate_flow(field: VectorField, start: Sequence[complex],
                   t_max: float = DEFAULT_TMAX, steps: int = DEFAULT_STEPS,
                   bound: float = DEFAULT_BOUND,
                   observer: "Callable[[float, np.ndarray], None] | None" = None
                   ) -> np.ndarray:
    """Classical fixed-step fourth-order Runge-Kutta flow of a field.

    Returns the trajectory array of shape ``(steps + 1, n)``; raises
    :class:`BlowupDetected` as soon as the state norm exceeds ``bound``.
    """
    comps = [compile_poly(c, field.chart.variables) for c in field.components]

    def rhs(z: np.ndarray) -> np.ndarray:
        return np.array([f(z) for f in comps], dtype=complex)

    z = np.array([complex(c) for c in start], dtype=complex)
    if observer:
        observer(0.0, z)
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
            observer((k + 1) * h, z)
    return out


# ---------------------------------------------------------------------------
# invariance probe
# ---------------------------------------------------------------------------


@dataclass
class PointFlowResult:
    start: list[complex]
    max_residual: float
    blew_up: bool


@dataclass
class FieldFlowResult:
    field_index: int
    max_residual: float       # over points that stayed in the safety ball
    points: list[PointFlowResult]

    @property
    def any_blowup(self) -> bool:
        return any(p.blew_up for p in self.points)


@dataclass
class FlowProbeReport:
    per_field: list[FieldFlowResult]
    sample_points: list[list[complex]]

    @property
    def max_residual(self) -> float:
        return max((f.max_residual for f in self.per_field), default=0.0)

    @property
    def any_blowup(self) -> bool:
        return any(f.any_blowup for f in self.per_field)


def flow_invariance_probe(basis: FieldBasis, section: Poly, rng: Random,
                          n_points: int = 5, t_max: float = DEFAULT_TMAX,
                          steps: int = DEFAULT_STEPS,
                          bound: float = DEFAULT_BOUND) -> FlowProbeReport:
    """Integrate each basis field from divisor points and watch the residual.

    The per-step residual is ``|f(z)| / (1 + |z|^deg f)``.  A trajectory that
    leaves the safety ball is recorded as a blowup; its residual up to that
    time still contributes to the per-point record but not to the per-field
    maximum.
    """
    variables = basis.chart.variables
    points = sample_divisor_points(section, variables, rng, count=n_points)
    deg = max(section.total_degree(), 1)
    f_eval = compile_poly(section, variables)

    per_field: list[FieldFlowResult] = []
    for idx, field in enumerate(basis.fields):
        field_points: list[PointFlowResult] = []
        clean_max = 0.0
        for z0 in points:
            worst = 0.0

            def watch(_t: float, z: np.ndarray):
                nonlocal worst
                r = abs(f_eval(z)) / (1.0 + float(np.linalg.norm(z)) ** deg)
                worst = max(worst, r)

            blew = False
            try:
                integrate_flow(field, z0, t_max=t_max, steps=steps,
                               bound=bound, observer=watch)
            except BlowupDetected:
                blew = True
            field_points.append(PointFlowResult([complex(c) for c in z0],
                                                worst, blew))
            if not blew:
                clean_max = max(clean_max, worst)
        per_field.append(FieldFlowResult(idx, clean_max, field_points))
    return FlowProbeReport(per_field, [[complex(c) for c in p] for p in points])
