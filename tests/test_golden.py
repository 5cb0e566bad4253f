"""Golden reports: refactors of the exact layer must not change any output.

Each golden file under ``tests/golden/`` is the canonical report of one
scenario at a fixed seed: the five bundled scenarios under a full
``analyze``, and a handful of hand-written ``divisor kahler`` bases.  The
degenerate bundled scenario is stored as its DegenerateBasis message.

Exact fields (strings, integers, booleans, nulls) must match byte for byte.
Probe floats may differ by a relative 1e-12: summing the same terms of a
polynomial in another order moves ``kahler.sampled_max_residual`` by an ulp
or two without changing the value being estimated.

The files were written from the code before ``sigma`` was kept as
``adj(S)/det S``.  ``PYTHONPATH=src python tests/test_golden.py`` rewrites
them from the current code, which is only right when an output change is
intended.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from anticanon.errors import DegenerateBasis
from anticanon.report import run_report, serialize_report
from anticanon.scenario import bundled_scenario_names, load_scenario, parse_scenario

GOLDEN = Path(__file__).with_name("golden")
SEED = 1234
FLOAT_RTOL = 1e-12

BUNDLED = ("c2_incomplete", "p2_nilpotent", "p2_pencil", "p2_toric", "p3_toric")

# Hand-written bases: random-looking non-commuting pairs on C^2 (degree 1
# and 2) and torus bases conjugated by a shear (commuting, so Kahler).
HANDWRITTEN = {
    "c2_linear_random": """
ambient C2
field s1 = (2*z1 - i*z1 + 1) d1 + (-i*z2) d2
field s2 = (-z2 + 2*i*z2) d1 + (i*z1 + 1 - i) d2
analyses divisor kahler
""",
    "c2_linear_mixed": """
ambient C2
field s1 = (z2 + 2*z1) d1 + (-i) d2
field s2 = (-z1 + i*z1 - 2) d1 + (2*z2 + i*z2) d2
analyses divisor kahler
""",
    "c2_quadratic_random": """
ambient C2
field s1 = (-z1^2 - i) d1 + (-2*z2 + i*z2) d2
field s2 = (z1 + i*z1) d1 + (-z2^2 + 2 - i) d2
analyses divisor kahler
""",
    "c2_quadratic_sparse": """
ambient C2
field s1 = (i*z1 - 2) d1 + (z1^2) d2
field s2 = (-2 + i) d1 + (z2 + z1 + i*z1) d2
analyses divisor kahler
""",
    "c2_linear_shear": """
ambient C2
field s1 = (-2*z1) d1 + (2*z1) d2
field s2 = (z2 + z1) d2
analyses divisor kahler
""",
    "c2_quadratic_shear": """
ambient C2
field s1 = (z1) d1 + (4*z1^2 + 2*z1) d2
field s2 = (-4*z1^2 + 2*z2 - 4*z1) d2
analyses divisor kahler
""",
    "c3_linear_shear": """
ambient C3
field s1 = (2*z1) d1 + (4*z1) d2 + (2*z1) d3
field s2 = (z2 - 2*z1) d2 + (-z2 + 2*z1) d3
field s3 = (2*z3 + 2*z2 - 6*z1) d3
analyses divisor kahler
""",
}


def _report(name: str):
    """The canonical report of a case as parsed JSON, or the error message."""
    if name in HANDWRITTEN:
        scenario = parse_scenario(HANDWRITTEN[name], name=name)
    else:
        scenario = load_scenario(name)
    try:
        return json.loads(serialize_report(run_report(scenario, seed_override=SEED)))
    except DegenerateBasis as exc:
        return {"DegenerateBasis": str(exc)}


def _differences(expected, actual, path: str = "$") -> list[str]:
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(expected, actual, rel_tol=FLOAT_RTOL, abs_tol=0.0):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual):
        return [f"{path}: {type(actual).__name__} != {type(expected).__name__}"]
    if isinstance(expected, dict):
        if list(expected) != list(actual):
            return [f"{path}: keys {list(actual)} != {list(expected)}"]
        return [d for key in expected
                for d in _differences(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [d for k, (e, a) in enumerate(zip(expected, actual))
                for d in _differences(e, a, f"{path}[{k}]")]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]


def test_golden_cases_cover_every_bundled_scenario():
    assert sorted(BUNDLED) == bundled_scenario_names()


@pytest.mark.parametrize("name", BUNDLED + tuple(HANDWRITTEN))
def test_report_matches_golden(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _differences(expected, _report(name)) == []


def test_float_tolerance_is_relative_and_exact_fields_are_not():
    assert _differences({"x": 1.0}, {"x": 1.0 + 2e-16}) == []
    assert _differences({"x": 0.0}, {"x": 1e-300}) != []
    assert _differences({"s": "z1"}, {"s": "z1 "}) != []
    assert _differences([1, True], [1, 1]) != []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in BUNDLED + tuple(HANDWRITTEN):
        (GOLDEN / f"{case}.json").write_text(serialize_report(_report(case)))
        print(f"wrote {GOLDEN / case}.json", file=sys.stderr)
