"""Flow integration: accuracy, blowup detection, divisor invariance."""

import cmath
import math

import numpy as np
import pytest

from anticanon.divisor import divisor_affine
from anticanon.errors import BlowupDetected
from anticanon.fields import FieldBasis, affine_field
from anticanon.flows import (
    flow_invariance_probe,
    integrate_flow,
    rk4_states,
    sample_divisor_points,
)
from anticanon.polyparse import parse_poly
from anticanon.sampling import rng_for


def test_rk4_matches_linear_exponential():
    """d/dt z = i z from z(0) = 1 lands on exp(i t_max)."""
    field = affine_field(1, ("i*z1",))
    traj = integrate_flow(field, [1.0 + 0.0j], t_max=1.0, steps=1000)
    assert traj.shape == (1001, 1)
    assert traj[-1, 0] == pytest.approx(cmath.exp(1j), abs=1e-10)


def test_rk4_matches_scalar_riccati():
    """d/dt z = z^2 from z(0) = 1/2 equals 1/(2 - t)."""
    field = affine_field(1, ("z1^2",))
    traj = integrate_flow(field, [0.5 + 0.0j], t_max=1.0, steps=2000)
    assert traj[-1, 0] == pytest.approx(1.0, abs=1e-9)


def test_blowup_detected():
    field = affine_field(1, ("z1^2",))
    # 1/(1 - t) leaves any ball before t = 1
    with pytest.raises(BlowupDetected):
        integrate_flow(field, [1.0 + 0.0j], t_max=1.0, steps=4000, bound=1e4)


def test_rk4_states_yields_every_step():
    field = affine_field(1, ("z1",))
    seen = list(rk4_states(field, [1.0 + 0.0j], t_max=1.0, steps=10))
    assert len(seen) == 11
    assert seen[0] == ([1.0 + 0.0j], 1.0)
    assert seen[-1][0][0] == pytest.approx(math.e, rel=1e-5)
    assert all(r == abs(z[0]) for z, r in seen)


def test_sample_divisor_points_land_on_section():
    section = parse_poly("z1*z2 - 1")
    rng = rng_for(11, "sample")
    pts = sample_divisor_points(section, ("z1", "z2"), rng, count=4)
    assert len(pts) == 4
    for p in pts:
        val = section.eval_complex({"z1": complex(p[0]), "z2": complex(p[1])})
        norm = float(np.linalg.norm(p))
        assert abs(val) < 1e-10 * (1.0 + norm ** 2)
        assert norm <= 6.0 + 1e-9


def test_sample_constant_section_yields_nothing():
    rng = rng_for(11, "sample")
    assert sample_divisor_points(parse_poly("1"), ("z1",), rng) == []


def test_invariance_for_tangent_basis():
    """Fields tangent to their own determinant divisor keep it invariant."""
    basis = FieldBasis([affine_field(2, ("z1", "0")),
                        affine_field(2, ("0", "z2"))])
    section = divisor_affine(basis).section
    report = flow_invariance_probe(basis, section, rng_for(1234, "flow"))
    assert report.sample_points
    assert report.max_residual < 1e-6
    assert all(fr.blowups == 0 for fr in report.per_field)


def test_invariance_fails_for_transverse_field():
    """A field pushing off its divisor shows a macroscopic residual."""
    basis = FieldBasis([affine_field(2, ("1", "0")),
                        affine_field(2, ("0", "z1^2"))])
    section = divisor_affine(basis).section     # z1^2
    report = flow_invariance_probe(basis, section, rng_for(1234, "flow"))
    residuals = {fr.field_index: fr.max_residual for fr in report.per_field}
    assert residuals[0] > 1e-2        # translation leaves z1 = 0 immediately
    assert residuals[1] < 1e-6        # z1^2 d2 preserves z1 = 0


def _survivor_residuals(basis, section, report, t_max, steps, bound):
    """Per-field maximum residual recomputed from integrate_flow's arrays,
    over the trajectories that stay in the ball, and the blowup counts."""
    variables = basis.chart.variables
    deg = max(section.total_degree(), 1)
    maxima, blowups = [], []
    for field in basis.fields:
        worst, blown = 0.0, 0
        for z0 in report.sample_points:
            try:
                traj = integrate_flow(field, z0, t_max=t_max, steps=steps,
                                      bound=bound)
            except BlowupDetected:
                blown += 1
                continue
            for row in traj:
                z = [complex(c) for c in row]
                norm = math.sqrt(sum(c.real * c.real for c in z)
                                 + sum(c.imag * c.imag for c in z))
                value = abs(section.eval_complex(dict(zip(variables, z))))
                worst = max(worst, value / (1.0 + norm ** deg))
        maxima.append(worst)
        blowups.append(blown)
    return maxima, blowups


def test_probe_counts_blowups_separately():
    """z1 d1 leaves the |z| <= 5 ball from 4 of the 5 divisor points, and the
    per-field residual covers only the one trajectory that stays."""
    basis = FieldBasis([affine_field(2, ("z1", "0")),
                        affine_field(2, ("0", "z2^2"))])
    section = divisor_affine(basis).section     # z1 * z2^2
    report = flow_invariance_probe(basis, section, rng_for(1, "flow"),
                                   steps=500, bound=5.0)
    assert len(report.sample_points) == 5
    assert [fr.blowups for fr in report.per_field] == [4, 0]
    maxima, blowups = _survivor_residuals(basis, section, report, 1.0, 500, 5.0)
    assert blowups == [4, 0]
    assert [fr.max_residual for fr in report.per_field] == maxima


def test_blown_up_drift_stays_out_of_the_residual():
    """z1 d1 + d2 drifts off z2 = 0 before it leaves the ball; that drift
    must not reach the residual of the trajectory that stays on z1 = 0."""
    basis = FieldBasis([affine_field(2, ("z1", "1")),
                        affine_field(2, ("0", "z2^2"))])
    section = divisor_affine(basis).section     # z1 * z2^2
    report = flow_invariance_probe(basis, section, rng_for(1, "flow"),
                                   steps=500, bound=5.0)
    assert report.per_field[0].blowups == 4
    assert report.per_field[0].max_residual < 1e-12
    drift = 0.0
    for z0 in report.sample_points:
        try:
            for z, r in rk4_states(basis.fields[0], z0, 1.0, 500, 5.0):
                drift = max(drift, abs(z[0] * z[1] ** 2) / (1.0 + r ** 3))
        except BlowupDetected:
            pass
    assert drift > 1e-2


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("components", [
    (("1", "0"), ("0", "z1^2")),           # transverse translation
    (("z1", "1"), ("0", "z2^2")),          # drift, and blowups at bound 5
    (("z1 + z2", "z2"), ("z2^2", "i*z1")),
])
def test_probe_residuals_match_integrate_flow(seed, components):
    basis = FieldBasis([affine_field(2, c) for c in components])
    section = divisor_affine(basis).section
    report = flow_invariance_probe(basis, section, rng_for(seed, "flow"),
                                   steps=200, bound=5.0)
    assert report.sample_points
    maxima, blowups = _survivor_residuals(basis, section, report, 1.0, 200, 5.0)
    assert [fr.blowups for fr in report.per_field] == blowups
    assert [fr.max_residual for fr in report.per_field] == maxima
