"""anticanon: anticanonical divisors and Ricci-flat hermitian metrics from vector fields.

Given a basis of holomorphic polynomial vector fields on complex affine or
projective space, the toolkit builds the associated determinant divisor and
inverse-matrix hermitian metric, decides the Kähler and completeness
dichotomies symbolically, probes them numerically, and computes the lattice
normal form, compatibility constraints, and moduli-cone dimension for
group-invariant Kähler classes.

The package namespace is lazy (PEP 562): ``import anticanon`` loads no
layer, and each public name imports its submodule on first access.
"""

from __future__ import annotations

import importlib

# numpy is a hard dependency: fail here, not at the first numeric probe.
from . import _numpy  # noqa: F401

__version__ = "0.1.0"

# Each public name, grouped by the submodule that defines it.
_SUBMODULE_NAMES = {
    "errors": (
        "AnticanonError", "BadDirection", "BlowupDetected", "ChartMismatch",
        "DegenerateBasis", "NotHermitian", "NotSemiTorus", "OnDivisor",
        "ParseError", "PatternViolation", "SingularMatrix",
    ),
    "exact": (
        "ExactScalar", "Poly", "RatFunc", "exact_divide", "format_poly",
        "format_scalar", "poly_det", "poly_gcd", "squarefree_decompose",
    ),
    "polyparse": ("parse_poly", "parse_scalar"),
    "fields": (
        "Chart", "VectorField", "ProjectiveField", "FieldBasis",
        "ProjectiveBasis", "affine_field", "projective_field", "bracket",
        "euler_field",
    ),
    "divisor": (
        "DivisorSection", "divisor_affine", "divisor_projective",
        "tangency_affine", "tangency_projective",
    ),
    "metric": (
        "MetricModel", "build_metric", "metric_at", "metric_at_exact",
        "positive_definite", "kahler_defect", "ricci_certificate",
        "ricci_probe", "completeness_probe",
    ),
    "flows": ("integrate_flow", "sample_divisor_points", "flow_invariance_probe"),
    "cone": (
        "LatticeData", "NormalForm", "normal_form", "stokes_constraints",
        "cone_dimension", "hermitian_from_params", "build_potential",
        "class_project", "class_equal",
    ),
    "scenario": (
        "Scenario", "parse_scenario", "load_scenario", "bundled_scenario_names",
    ),
    "report": ("run_report", "serialize_report", "render_text"),
    "sampling": ("rng_for",),
}

_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items()
                 for name in names}

__all__ = [*_SUBMODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    # Bind it here, so later lookups (and tools that read the module's
    # __dict__) find the value without coming back through this hook.
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE_OF})
