"""Golden reports: refactors of the exact layer must not change any output.

Each golden file under ``tests/golden/`` is the canonical report of one
scenario at a fixed seed: the five bundled scenarios under a full
``analyze``, a handful of hand-written ``divisor kahler`` bases, and
hand-written ``cone``-only lattices on C^4 to C^6.  The degenerate bundled
scenario is stored as its DegenerateBasis message.

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

from anticanon.cone import normal_form, pattern_dimension, stokes_constraints
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

# Hand-written lattices, analysed with ``cone`` only.  They cover a pushed-
# forward torus (k = 0), random generators (k > 0), complex pairs ``v, i v``
# with a dependent generator, and three residual-block cases (m > 0: the
# ``*_residual`` ones and ``c5_lattice_complex_pairs``).
LATTICES = {
    "c4_lattice_torus": (4, "(-2+2*i, -2-i, -2+i, 1+i), (1-i, 2, 1+2*i, 2-i), "
                            "(2, 2+i, -2-2*i, -1-i), (1-i, 2+i, -1-i, 2+i)"),
    "c4_lattice_five": (4, "(3/2+2/3*i, -3/2-1/3*i, 1/2+2/3*i, 1-4*i), "
                           "(2-3*i, -3/2, -2*i, 2*i), "
                           "(4-2/3*i, -2+2/3*i, 1-4/3*i, 1/2+i), "
                           "(2+i, -2+1/2*i, 0, -3/2+1/3*i), "
                           "(-2*i, 1-2/3*i, 3/2-2/3*i, -i)"),
    "c4_lattice_residual": (4, "(2+i, 3-1/3*i, 1/3+3*i, -2-i), "
                               "(-1/2-2*i, 3/2*i, 4/3+3/2*i, 1+2/3*i), "
                               "(2/3-i, 2+3*i, -3*i, -1/2-i)"),
    "c5_lattice_complex_pairs": (5, "(4/3-2/3*i, -1-i, 1/2-i, -2, 1/2+1/2*i), "
                                    "(2/3+4/3*i, 1-i, 1+1/2*i, -2*i, -1/2+1/2*i), "
                                    "(2/3, -i, i, -2, 1-i), "
                                    "(2/3*i, 1, -1, -2*i, 1+i), "
                                    "(2-2*i, 3, 3+4*i, 4+2*i, -3), "
                                    "(7/3-5/3*i, 1/2-i, 2+i, i, -1+1/2*i)"),
    "c5_lattice_seven": (5, "(-3+1/3*i, -1+3/2*i, 2+2/3*i, i, 0), "
                            "(1-3*i, -2-4*i, -1/2-i, -3/2+2/3*i, -2/3-3*i), "
                            "(1/3-3/2*i, -4/3+1/3*i, 1-4*i, 4/3+2*i, -1/3+i), "
                            "(2/3+3/2*i, -1/3+1/3*i, 3+3*i, 4/3, -2+3*i), "
                            "(-2-2*i, 2+4*i, 1/2*i, 2/3-2/3*i, -4-4*i), "
                            "(1+i, -4/3-2/3*i, -1-2*i, -3-i, -1/3), "
                            "(-2-1/2*i, -3+4*i, -4/3+i, 2/3-2*i, -1/2-3*i)"),
    "c6_lattice_eight": (6, "(1/2-3*i, 1+2*i, -4/3+i, -1-1/2*i, -1/2-i, -1/2-1/3*i), "
                            "(1+i, 3-1/2*i, -1/3*i, -3/2-i, -i, -2+3*i), "
                            "(-4+1/3*i, 3+4*i, -1+2*i, 1-2*i, i, 2-2/3*i), "
                            "(3/2, -2+3/2*i, 1/3+i, -4/3+i, -1-1/3*i, 1/3), "
                            "(1+i, -2*i, -4/3+4/3*i, 2+i, -3+4/3*i, 4/3-4*i), "
                            "(1-2/3*i, -2-3*i, -1-i, -1+1/3*i, 2/3-4*i, 2), "
                            "(-4+4/3*i, i, 4/3+i, -1/3-1/3*i, -4/3*i, 3-i), "
                            "(-2/3-1/3*i, 0, -4+4*i, -1+4*i, -4+1/3*i, -1-4*i)"),
    "c6_lattice_residual": (6, "(0, 4/3-1/2*i, -1+2*i, -3+3*i, 2-4*i, 0), "
                               "(0, 4-4*i, -1/3*i, 1/3+i, 4-3*i, 0), "
                               "(0, -1/2, 1/3-2*i, -4-1/3*i, -1-2/3*i, 0), "
                               "(0, 1/2+i, 1, -2-i, -3+4/3*i, 0)"),
    "c6_lattice_ten": (6, "(3/2*i, -3/2*i, 4+3/2*i, 2*i, -3-4*i, 3/2+i), "
                          "(-4/3*i, -2+1/3*i, 3*i, -3/2-i, -1-3*i, 4-2*i), "
                          "(1-1/3*i, -2+i, -4/3-1/3*i, 1/3-4*i, 1+3/2*i, 1-3*i), "
                          "(-1-1/3*i, 3/2, -1-2*i, 2-1/2*i, 1-4/3*i, -1/3-2*i), "
                          "(-4-i, 4+1/3*i, -1+1/2*i, -1/2-2*i, -2/3+2/3*i, 1-i), "
                          "(-1/2-2/3*i, -1, 3, -3, -4/3+2/3*i, 0), "
                          "(-2/3-4*i, -3/2-i, -1/2-1/2*i, 1/3*i, 2, 1-i), "
                          "(1/3-1/3*i, 2/3+4*i, 4*i, -i, -1/3+2/3*i, -3/2+3/2*i), "
                          "(3+3*i, -1/3+2*i, -2+3/2*i, -1/3-4/3*i, -4/3-i, -1-3/2*i), "
                          "(1, 4-4*i, i, 2*i, 1-i, 2-i)"),
}


def _lattice_text(name: str) -> str:
    n, generators = LATTICES[name]
    fields = "".join(f"field e{k} = d{k}\n" for k in range(1, n + 1))
    return f"ambient C{n}\n{fields}lattice {generators}\nanalyses cone\n"


CASES = BUNDLED + tuple(HANDWRITTEN) + tuple(LATTICES)


def _report(name: str):
    """The canonical report of a case as parsed JSON, or the error message."""
    if name in HANDWRITTEN:
        scenario = parse_scenario(HANDWRITTEN[name], name=name)
    elif name in LATTICES:
        scenario = parse_scenario(_lattice_text(name), name=name)
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


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _differences(expected, _report(name)) == []


@pytest.mark.parametrize("name", tuple(LATTICES))
def test_stokes_dim_is_pattern_dimension(name):
    """``pattern_dimension``'s claim: in adapted coordinates the period
    constraints cut out exactly the forms with vanishing k x k and k x l
    blocks and a real l x l block.  The constraints touch only the leading
    (k + l) square block, so the count holds with a residual block (m > 0)
    too, and those lattices are pinned as well."""
    lattice = parse_scenario(_lattice_text(name), name=name).lattice
    nf = normal_form(lattice)
    assert stokes_constraints(lattice).solution_dim == pattern_dimension(nf)


def test_float_tolerance_is_relative_and_exact_fields_are_not():
    assert _differences({"x": 1.0}, {"x": 1.0 + 2e-16}) == []
    assert _differences({"x": 0.0}, {"x": 1e-300}) != []
    assert _differences({"s": "z1"}, {"s": "z1 "}) != []
    assert _differences([1, True], [1, 1]) != []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.json").write_text(serialize_report(_report(case)))
        print(f"wrote {GOLDEN / case}.json", file=sys.stderr)
