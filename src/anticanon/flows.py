"""Numeric flow machinery: divisor sampling, fixed-step integration, invariance probe.

The invariance probe integrates each basis field from points sampled on the
divisor and watches the scaled section residual
``|f(z(t))| / (1 + |z(t)|^deg f)``; fields whose flows preserve the divisor
keep it at rounding level, fields that push off the divisor drive it up to
order one.

Every float evaluation of a polynomial in the numeric probes goes through
:func:`compile_poly`.  The one Runge-Kutta loop is the generator
:func:`rk4_states`, which yields each state with its norm; the probe reads
that stream directly, and :func:`integrate_flow` packs it into an array.
The loop runs on lists of Python ``complex`` values, not numpy arrays: the
state is two or three numbers, so per-step array overhead would dominate.
Its operations and their order are those of the textbook vector form, so a
trajectory is bit-for-bit the one the same formulas give over numpy complex
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterator, Sequence

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


def compile_poly(p: Poly, variables: Sequence[str]) -> Callable[[Sequence[complex]], complex]:
    """Complex evaluator for ``p`` at points given in the order ``variables``.

    The returned function takes a sequence of Python ``complex`` values and
    gives exactly ``p.eval_complex(dict(zip(variables, z)))``: the terms and
    their factors are multiplied and summed in the same order, only the
    exponent tuples and coefficient conversions are done once, here.
    """
    index = [variables.index(v) for v in p.vars]
    terms = [(c.to_complex(), tuple((j, e) for j, e in zip(index, exp) if e))
             for exp, c in p.terms.items()]

    def evaluate(z: Sequence[complex]) -> complex:
        total = 0j
        for t, factors in terms:
            for j, e in factors:
                t *= z[j] ** e
            total += t
        return total

    return evaluate


# ---------------------------------------------------------------------------
# divisor point sampling
# ---------------------------------------------------------------------------


def restrict_to_line(section: Poly, variables: Sequence[str],
                     base: Sequence[ExactScalar],
                     direction: Sequence[ExactScalar]) -> Poly:
    """Exact restriction ``t -> f(base + t*direction)``, a polynomial in ``t``."""
    t = Poly.var("t")
    return section.substitute({v: Poly.const(p0) + t * Poly.const(d)
                               for v, p0, d in zip(variables, base, direction)})


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
    f_eval = compile_poly(section, variables)
    for _line in range(max_lines):
        if len(points) >= count:
            break
        base = generic_point(rng, len(variables), span=2, den=4)
        direction = generic_point(rng, len(variables), span=2, den=4)
        line = restrict_to_line(section, variables, base, direction)
        if line.is_constant():
            continue  # line misses the divisor or lies inside it
        coeffs = [0j] * (line.degree_in("t") + 1)
        for (e,), c in line.terms.items():
            coeffs[e] = c.to_complex()
        b = np.array([e.to_complex() for e in base])
        d = np.array([e.to_complex() for e in direction])
        for t in _newton_roots(coeffs, rng):
            z = b + t * d
            norm = float(np.linalg.norm(z))
            if norm > radius:
                continue
            value = abs(f_eval([complex(c) for c in z]))
            if value < ROOT_TOL * (1.0 + norm ** max(deg, 1)):
                points.append(z)
                if len(points) >= count:
                    break
    return points


# ---------------------------------------------------------------------------
# fixed-step integration
# ---------------------------------------------------------------------------


def rk4_states(field: VectorField, start: Sequence[complex],
               t_max: float = DEFAULT_TMAX, steps: int = DEFAULT_STEPS,
               bound: float = DEFAULT_BOUND) -> Iterator[tuple[list[complex], float]]:
    """Classical fixed-step fourth-order Runge-Kutta flow of a field.

    Yields ``(z, |z|)`` for the start state and for each of the ``steps``
    accepted steps, with ``z`` a list of complex numbers; raises
    :class:`BlowupDetected` as soon as the state leaves the finite
    ``|z| <= bound`` ball.

    The step is ``z + (h/6) * (((k1 + 2 k2) + 2 k3) + k4)`` with stages at
    ``z + (h/2) k``, evaluated componentwise in Python complex arithmetic.
    """
    comps = [compile_poly(c, field.chart.variables) for c in field.components]
    z = [complex(c) for c in start]
    yield z, _norm(z)
    h = t_max / steps
    half, sixth = 0.5 * h, h / 6.0
    for k in range(steps):
        try:
            k1 = [f(z) for f in comps]
            y = [a + half * b for a, b in zip(z, k1)]
            k2 = [f(y) for f in comps]
            y = [a + half * b for a, b in zip(z, k2)]
            k3 = [f(y) for f in comps]
            y = [a + h * b for a, b in zip(z, k3)]
            k4 = [f(y) for f in comps]
            z = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]
            r = _norm(z)
            # NaN fails the comparison and an infinite part makes the norm
            # infinite, so non-finite states count as leaving the ball.
            left = not r <= bound
        except OverflowError:
            # Python raises where a complex power overflows; the state
            # would not have been finite at this step.
            left = True
        if left:
            raise BlowupDetected(f"trajectory left the |z| <= {bound:.1e} ball "
                                 f"at step {k + 1}")
        yield z, r


def integrate_flow(field: VectorField, start: Sequence[complex],
                   t_max: float = DEFAULT_TMAX, steps: int = DEFAULT_STEPS,
                   bound: float = DEFAULT_BOUND) -> np.ndarray:
    """The :func:`rk4_states` trajectory as an array of shape ``(steps + 1, n)``.

    Raises :class:`BlowupDetected` as :func:`rk4_states` does.
    """
    return np.array([z for z, _r in rk4_states(field, start, t_max, steps, bound)],
                    dtype=complex)


def _norm(z: Sequence[complex]) -> float:
    """Euclidean norm, summing the squared real parts, then the imaginary."""
    re = im = 0.0
    for c in z:
        re += c.real * c.real
        im += c.imag * c.imag
    return math.sqrt(re + im)


# ---------------------------------------------------------------------------
# invariance probe
# ---------------------------------------------------------------------------


@dataclass
class FieldFlowResult:
    field_index: int
    max_residual: float       # over points that stayed in the safety ball
    blowups: int              # trajectories that left the safety ball


@dataclass
class FlowProbeReport:
    per_field: list[FieldFlowResult]
    sample_points: list[list[complex]]

    @property
    def max_residual(self) -> float:
        return max((f.max_residual for f in self.per_field), default=0.0)


def flow_invariance_probe(basis: FieldBasis, section: Poly, rng: Random,
                          n_points: int = 5, t_max: float = DEFAULT_TMAX,
                          steps: int = DEFAULT_STEPS,
                          bound: float = DEFAULT_BOUND) -> FlowProbeReport:
    """Integrate each basis field from divisor points and watch the residual.

    The per-step residual is ``|f(z)| / (1 + |z|^deg f)``.  A trajectory that
    leaves the safety ball counts as a blowup and does not contribute to the
    per-field maximum.
    """
    variables = basis.chart.variables
    points = sample_divisor_points(section, variables, rng, count=n_points)
    deg = max(section.total_degree(), 1)
    f_eval = compile_poly(section, variables)

    per_field: list[FieldFlowResult] = []
    for idx, field in enumerate(basis.fields):
        clean_max = 0.0
        blowups = 0
        for z0 in points:
            worst = 0.0
            try:
                for z, r in rk4_states(field, z0, t_max, steps, bound):
                    worst = max(worst, abs(f_eval(z)) / (1.0 + r ** deg))
            except BlowupDetected:
                blowups += 1
            else:
                clean_max = max(clean_max, worst)
        per_field.append(FieldFlowResult(idx, clean_max, blowups))
    return FlowProbeReport(per_field, [[complex(c) for c in p] for p in points])
