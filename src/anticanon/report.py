"""Analysis pipeline: run a scenario end to end and emit a deterministic report.

The report is a plain dict of JSON-serializable values; with a fixed seed two
runs produce byte-identical serialized output.  Every verdict is accompanied
by the evidence it was derived from (witness brackets, residuals, block
lengths, sampled points), never a bare boolean.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

from .cone import (
    LatticeData,
    cone_dimension,
    normal_form,
    stokes_constraints,
)
from .divisor import (
    DivisorSection,
    dehomogenize,
    divisor_affine,
    divisor_projective,
    format_factors,
    tangency_affine,
    tangency_projective,
)
from .errors import BadDirection, OnDivisor, ParseError
from .exact import ExactScalar
from .fields import ProjectiveBasis
from .flows import flow_invariance_probe, sample_divisor_points
from .metric import (
    MetricModel,
    build_metric,
    completeness_probe,
    kahler_defect,
    ricci_certificate,
    ricci_probe,
)
from .sampling import generic_point, rng_for
from .scenario import ALL_ANALYSES, ProbeConfig, Scenario

SCHEMA_VERSION = 1
DEFAULT_SEED = 1234
SEED_ENV_VAR = "ANTICANON_SEED"


def resolve_seed(scenario: Scenario, override: "int | None") -> int:
    """Seed precedence: CLI override, scenario file, environment, default."""
    if override is not None:
        return override
    if scenario.config.seed is not None:
        return scenario.config.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ParseError(f"{SEED_ENV_VAR} must be an integer (got {env!r})") from None


# ---------------------------------------------------------------------------
# preparing the working model
# ---------------------------------------------------------------------------


class PreparedModel:
    """A scenario resolved to a working chart with divisor and metric data."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.projective: "ProjectiveBasis | None" = None
        self.chart_index: "int | None" = None
        if scenario.ambient == "P":
            self.projective = scenario.projective_basis()
            self.section = divisor_projective(self.projective)
            self.chart_index = self._pick_chart(self.section)
            self.basis = self.projective.localize(self.chart_index)
            # The chart determinant is the dehomogenized section, up to a
            # constant factor.
            self.chart_section = dehomogenize(
                self.section.section, self.chart_index).monic()
            self.tangency = tangency_projective(self.projective, self.section)
        else:
            self.basis = scenario.affine_basis()
            self.section = divisor_affine(self.basis)
            self.chart_section = self.section.section
            self.tangency = tangency_affine(self.basis, self.section)
        self.metric: MetricModel = build_metric(self.basis)

    def _pick_chart(self, section: DivisorSection) -> int:
        """The first chart on which the divisor is visible, else ``U0``."""
        for i in range(self.projective.n + 1):
            if not dehomogenize(section.section, i).is_constant():
                return i
        return 0

    @property
    def chart_label(self) -> str:
        if self.chart_index is None:
            return self.basis.chart.describe()
        return f"U{self.chart_index}"


# ---------------------------------------------------------------------------
# individual analyses
# ---------------------------------------------------------------------------


def _field_block(scenario: Scenario) -> list[dict]:
    return [{"name": name, "expr": expr}
            for name, expr in zip(scenario.field_names, scenario.field_exprs)]


def _divisor_block(model: PreparedModel) -> dict:
    sec = model.section
    block = {
        "section": str(sec.section),
        "degree": sec.degree,
        "factors": format_factors(sec),
        "reduced": sec.is_reduced(),
        "tangent_fields": list(model.tangency.tangent),
    }
    block["homogeneous"] = sec.homogeneous
    block["empty"] = sec.is_empty()
    failing = model.tangency.failing_indices()
    if failing:
        k = failing[0]
        block["tangency_witness"] = {
            "field": model.scenario.field_names[k],
            "derivative": str(model.tangency.derivatives[k]),
            "remainder": str(model.tangency.remainders[k]),
        }
    else:
        block["tangency_witness"] = None
    if model.chart_index is not None:
        block["chart"] = model.chart_label
        block["chart_section"] = str(model.chart_section)
    return block


def _kahler_block(model: PreparedModel, seed: int) -> dict:
    defect = kahler_defect(model.metric)
    abelian_witness = model.basis.abelian_witness()
    block = {
        "is_kahler": defect.is_zero,
        "is_abelian": abelian_witness is None,
        "agreement": defect.is_zero == (abelian_witness is None),
        "defect_residual_count": len(defect.residuals),
    }
    if defect.is_zero:
        block["witness"] = None
    else:
        (i, k, l), residual = defect.witness()
        entry = {"indices": [i, k, l], "residual": str(residual)}
        if abelian_witness is not None:
            a, b, br = abelian_witness
            entry["bracket"] = {"fields": [model.scenario.field_names[a],
                                           model.scenario.field_names[b]],
                                "value": str(br)}
        block["witness"] = entry
    rng = rng_for(seed, "kahler")
    pts = [generic_point(rng, model.basis.chart.dim) for _ in range(5)]
    block["sampled_max_residual"] = float(defect.sample_max(model.metric, pts))
    return block


def _completeness_block(model: PreparedModel, seed: int, config: ProbeConfig) -> dict:
    witness = model.basis.subalgebra_witness()
    is_sub = witness is None
    tangent_all = model.tangency.all_tangent
    block = {
        "is_subalgebra": is_sub,
        "tangent_all": tangent_all,
        "agreement": is_sub == tangent_all,
        "complete": is_sub,
    }
    if witness is not None:
        a, b, br, cert = witness
        block["witness"] = {
            "fields": [model.scenario.field_names[a], model.scenario.field_names[b]],
            "bracket": str(br),
            "certificate": cert,
        }
    else:
        block["witness"] = None

    probe: dict = {"applicable": not model.chart_section.is_constant()}
    if probe["applicable"]:
        rng = rng_for(seed, "completeness")
        chart = model.basis.chart
        points = sample_divisor_points(model.chart_section,
                                       chart.variables, rng, count=2)
        directions: list[list[ExactScalar]] = []
        for k in range(chart.dim):
            directions.append([ExactScalar(1 if j == k else 0)
                               for j in range(chart.dim)])
        for _ in range(2):
            directions.append(generic_point(rng, chart.dim, span=2))
        runs = []
        verdicts = []
        for p in points:
            p_list = [complex(c) for c in p]
            for v in directions:
                try:
                    result = completeness_probe(model.metric, p_list, v,
                                                depth=config.depth)
                except BadDirection:
                    runs.append({"point": _fmt_cvec(p_list),
                                 "direction": _fmt_cvec(v),
                                 "verdict": "tangent-direction"})
                    continue
                runs.append({
                    "point": _fmt_cvec(p_list),
                    "direction": _fmt_cvec(v),
                    "verdict": result.verdict,
                    "lengths_head": [float(x) for x in result.lengths[:4]],
                    "tail_min": float(min(result.lengths[-5:])),
                    "total": float(result.total),
                })
                verdicts.append(result.verdict)
        probe["runs"] = runs
        if not verdicts:
            probe["verdict"] = "no-transverse-direction"
        elif "finite" in verdicts:
            probe["verdict"] = "finite"
        elif all(v == "divergent" for v in verdicts):
            probe["verdict"] = "divergent"
        else:
            probe["verdict"] = "inconclusive"
        probe["agrees_with_symbolic"] = (
            (probe["verdict"] == "divergent") == is_sub
            if probe["verdict"] in ("finite", "divergent") else None)
    block["probe"] = probe
    return block


def _ricci_block(model: PreparedModel, seed: int, config: ProbeConfig) -> dict:
    cert = ricci_certificate(model.metric, rng_for(seed, "ricci-exact"), count=20)
    rng = rng_for(seed, "ricci-probe")
    worst = 0.0
    used = 0
    tries = 0
    while used < 20 and tries < 200:
        tries += 1
        p = generic_point(rng, model.basis.chart.dim, span=3)
        try:
            value = ricci_probe(model.metric,
                                [e.to_complex() for e in p], h=config.h)
        except OnDivisor:
            continue
        clearance = model.metric.divisor_clearance([e.to_complex() for e in p])
        if clearance < 1e-3:
            continue   # stay well off the divisor so the stencil is clean
        worst = max(worst, value)
        used += 1
    return {
        "certificate": {
            "identity": "det g == |det sigma|^2 (exact rational points)",
            "points": cert.points_checked,
            "all_equal": cert.all_equal,
        },
        "probe": {
            "h": config.h,
            "points": used,
            "max_mixed_second_derivative": float(worst),
        },
    }


def _flow_block(model: PreparedModel, seed: int, config: ProbeConfig) -> dict:
    report = flow_invariance_probe(model.basis, model.chart_section,
                                   rng_for(seed, "flow"),
                                   n_points=config.n_points,
                                   t_max=config.t_max, steps=config.steps)
    per_field = []
    for fr in report.per_field:
        per_field.append({
            "field": model.scenario.field_names[fr.field_index],
            "max_residual": float(fr.max_residual),
            "blowups": fr.blowups,
        })
    return {
        "points_sampled": len(report.sample_points),
        "sample_points": [_fmt_cvec(p) for p in report.sample_points],
        "steps": config.steps,
        "t_max": config.t_max,
        "per_field": per_field,
        "max_residual": float(report.max_residual),
    }


def _cone_block(lattice: LatticeData) -> dict:
    nf = normal_form(lattice)
    stokes = stokes_constraints(lattice)
    dim = cone_dimension(nf, stokes)
    block = {
        "k": nf.k,
        "l": nf.l,
        "m": nf.m,
        "semi_torus": nf.is_semi_torus(),
        "cone_dim": dim.value if dim.value is not None else "n/a",
        "stokes_dim": stokes.solution_dim,
        "generators": [[str(e) for e in g] for g in lattice.generators],
        "adapted_generators": [[str(e) for e in g] for g in nf.adapted_generators],
        "T": [[str(e) for e in row] for row in nf.T],
        "naming": {
            "complex_block_k": nf.k,
            "real_block_l": nf.l,
            "residual_block_m": nf.m,
            "note": "some conventions write l for the residual count "
                    "called m here",
        },
    }
    if dim.value is None:
        block["diagnostic"] = ("cone dimension not asserted for a residual "
                               "block; period-constraint solution dimension "
                               f"is {stokes.solution_dim}")
    return block


def _fmt_cvec(vec: Sequence) -> list[list[float]]:
    """Complex vector as [re, im] pairs (floats are JSON-stable via repr)."""
    out = []
    for entry in vec:
        if isinstance(entry, ExactScalar):
            z = entry.to_complex()
        else:
            z = complex(entry)
        out.append([float(z.real), float(z.imag)])
    return out


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------


def run_report(scenario: Scenario, seed_override: "int | None" = None,
               analyses: "Sequence[str] | None" = None) -> dict:
    """Run the requested analyses; raises DegenerateBasis for degenerate input."""
    seed = resolve_seed(scenario, seed_override)
    chosen = tuple(analyses) if analyses else (scenario.analyses or ALL_ANALYSES)
    model = PreparedModel(scenario)

    report: dict = {
        "schema": SCHEMA_VERSION,
        "scenario": scenario.name,
        "ambient": scenario.ambient_label,
        "seed": seed,
        "fields": _field_block(scenario),
        "basis": {
            "degenerate": False,
            "generic_rank": model.basis.generic_rank,
            "chart": model.chart_label,
            "sigma": [[str(e) for e in row] for row in model.metric.sigma],
            "det_section": str(model.metric.det_section),
        },
    }
    config = scenario.config
    if "divisor" in chosen:
        report["divisor"] = _divisor_block(model)
    if "kahler" in chosen:
        report["kahler"] = _kahler_block(model, seed)
    if "completeness" in chosen:
        report["completeness"] = _completeness_block(model, seed, config)
    if "ricci" in chosen:
        report["ricci"] = _ricci_block(model, seed, config)
    if "flow" in chosen:
        report["flow"] = _flow_block(model, seed, config)
    if "cone" in chosen:
        if scenario.lattice is None:
            report["cone"] = None
        else:
            report["cone"] = _cone_block(scenario.lattice)
    return report


def serialize_report(report: dict) -> str:
    """Canonical serialization: stable key order, repr-exact floats."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# human-readable rendering
# ---------------------------------------------------------------------------


def render_text(report: dict) -> str:
    """Flat, deterministic text rendering of a report dict."""
    lines: list[str] = []

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                emit(f"{prefix}{key}.", sub)
        elif isinstance(value, list):
            if all(not isinstance(v, (dict, list)) for v in value):
                lines.append(f"{prefix[:-1]} = {_list_text(value)}")
            else:
                for idx, sub in enumerate(value):
                    emit(f"{prefix}{idx}.", sub)
        else:
            lines.append(f"{prefix[:-1]} = {_scalar_text(value)}")

    emit("", report)
    return "\n".join(lines) + "\n"


def _scalar_text(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _list_text(values) -> str:
    return "[" + ", ".join(_scalar_text(v) for v in values) + "]"
