"""anticanon: anticanonical divisors and Ricci-flat hermitian metrics from vector fields.

Given a basis of holomorphic polynomial vector fields on complex affine or
projective space, the toolkit builds the associated determinant divisor and
inverse-matrix hermitian metric, decides the Kähler and completeness
dichotomies symbolically, probes them numerically, and computes the lattice
normal form, compatibility constraints, and moduli-cone dimension for
group-invariant Kähler classes.
"""

from __future__ import annotations

from .errors import (
    AnticanonError,
    BadDirection,
    BlowupDetected,
    ChartMismatch,
    DegenerateBasis,
    NotHermitian,
    NotSemiTorus,
    OnDivisor,
    ParseError,
    PatternViolation,
    SingularMatrix,
)
from .exact import (
    ExactScalar,
    Poly,
    RatFunc,
    exact_divide,
    format_poly,
    format_scalar,
    poly_det,
    poly_gcd,
    squarefree_decompose,
)
from .polyparse import parse_poly, parse_scalar
from .fields import (
    Chart,
    FieldBasis,
    ProjectiveBasis,
    ProjectiveField,
    VectorField,
    affine_field,
    bracket,
    euler_field,
    projective_field,
)
from .divisor import (
    DivisorSection,
    divisor_affine,
    divisor_projective,
    tangency_affine,
    tangency_projective,
)
from .metric import (
    MetricModel,
    build_metric,
    completeness_probe,
    kahler_defect,
    metric_at,
    metric_at_exact,
    positive_definite,
    ricci_certificate,
    ricci_probe,
)
from .flows import flow_invariance_probe, integrate_flow, sample_divisor_points
from .cone import (
    LatticeData,
    NormalForm,
    build_potential,
    class_equal,
    class_project,
    cone_dimension,
    hermitian_from_params,
    normal_form,
    stokes_constraints,
)
from .scenario import Scenario, bundled_scenario_names, load_scenario, parse_scenario
from .report import render_text, run_report, serialize_report
from .sampling import rng_for

__version__ = "0.1.0"

__all__ = [
    "AnticanonError",
    "BadDirection",
    "BlowupDetected",
    "ChartMismatch",
    "DegenerateBasis",
    "NotHermitian",
    "NotSemiTorus",
    "OnDivisor",
    "ParseError",
    "PatternViolation",
    "SingularMatrix",
    "ExactScalar",
    "Poly",
    "RatFunc",
    "exact_divide",
    "format_poly",
    "format_scalar",
    "poly_det",
    "poly_gcd",
    "squarefree_decompose",
    "parse_poly",
    "parse_scalar",
    "Chart",
    "VectorField",
    "ProjectiveField",
    "FieldBasis",
    "ProjectiveBasis",
    "affine_field",
    "projective_field",
    "bracket",
    "euler_field",
    "DivisorSection",
    "divisor_affine",
    "divisor_projective",
    "tangency_affine",
    "tangency_projective",
    "MetricModel",
    "build_metric",
    "metric_at",
    "metric_at_exact",
    "positive_definite",
    "kahler_defect",
    "ricci_certificate",
    "ricci_probe",
    "completeness_probe",
    "integrate_flow",
    "sample_divisor_points",
    "flow_invariance_probe",
    "LatticeData",
    "NormalForm",
    "normal_form",
    "stokes_constraints",
    "cone_dimension",
    "hermitian_from_params",
    "build_potential",
    "class_project",
    "class_equal",
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "bundled_scenario_names",
    "run_report",
    "serialize_report",
    "render_text",
    "rng_for",
    "__version__",
]
