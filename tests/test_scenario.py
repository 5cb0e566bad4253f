"""Scenario-file grammar and bundled scenarios."""

import pytest

from anticanon.errors import ParseError
from anticanon.exact import ExactScalar
from anticanon.scenario import (
    ALL_ANALYSES,
    bundled_scenario_names,
    load_scenario,
    parse_scenario,
)


def test_bundled_names_stable():
    assert bundled_scenario_names() == [
        "c2_incomplete", "p2_nilpotent", "p2_pencil", "p2_toric", "p3_toric",
    ]


def test_every_bundled_scenario_parses():
    for name in bundled_scenario_names():
        sc = load_scenario(name)
        assert sc.field_names
        assert len(sc.field_terms) == len(sc.field_names)


def test_parse_minimal_affine():
    sc = parse_scenario("ambient C2\nfield v = z1 d1\n", name="mini")
    assert sc.ambient == "C" and sc.n == 2
    assert sc.field_names == ["v"]
    (k, coeff), = sc.field_terms[0]
    assert k == 1 and str(coeff) == "z1"
    assert sc.lattice is None
    assert sc.analyses is None


def test_parse_projective_with_lattice_and_config():
    text = """
    # toric surface demo
    ambient P2
    field s1 = z1 d1
    field s2 = z2 d2
    lattice (i, 0), (0, i)
    seed 42
    depth 9
    steps 250
    points 3
    h 1e-3
    tmax 0.5
    analyses divisor cone
    """
    sc = parse_scenario(text, name="demo")
    assert sc.ambient_label == "P2"
    assert sc.lattice is not None and sc.lattice.n == 2
    assert sc.lattice.generators[0][0] == ExactScalar(0, 1)
    assert sc.config.seed == 42
    assert sc.config.depth == 9
    assert sc.config.steps == 250
    assert sc.config.n_points == 3
    assert sc.config.h == pytest.approx(1e-3)
    assert sc.config.t_max == pytest.approx(0.5)
    assert sc.analyses == ("divisor", "cone")


def test_parse_lattice_none():
    sc = parse_scenario("ambient C2\nfield v = z1 d1\nlattice none\n",
                        name="t")
    assert sc.lattice is not None
    assert sc.lattice.generators == ()


def test_signed_terms_and_constant_coefficients():
    sc = parse_scenario("ambient C2\nfield v = d1 - 2*z2 d2 + (1+i)*z1 d1\n",
                        name="t")
    terms = sc.field_terms[0]
    assert [(k, str(c)) for k, c in terms] == [
        (1, "1"), (2, "-2*z2"), (1, "(1+i)*z1")]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_scenario("ambient C2\nfield v = z1 dX\n", name="bad")
    assert "line 2" in str(err.value)

    with pytest.raises(ParseError):
        parse_scenario("field v = z1 d1\n", name="no-ambient")

    with pytest.raises(ParseError):
        parse_scenario("ambient C2\nfield v = z1 d7\n", name="range")

    with pytest.raises(ParseError):
        parse_scenario("ambient C2\nfield v = z1 d1\nanalyses bogus\n",
                       name="analysis")

    with pytest.raises(ParseError):
        parse_scenario("ambient Q2\nfield v = z1 d1\n", name="ambient")


def test_unknown_scenario_name():
    with pytest.raises(ParseError):
        load_scenario("definitely_not_bundled")


def test_field_count_must_match_dimension():
    # 1 field on C2: degenerate as a basis, but the parser itself accepts
    # any count; basis construction enforces squareness.
    sc = parse_scenario("ambient C2\nfield v = z1 d1\n", name="t")
    with pytest.raises(Exception):
        sc.affine_basis().require_nondegenerate()


def test_analyses_tuple_is_subset_of_known():
    for name in bundled_scenario_names():
        sc = load_scenario(name)
        if sc.analyses is not None:
            assert set(sc.analyses) <= set(ALL_ANALYSES)


@pytest.mark.parametrize("line, message", [
    ("depth 0", "depth must be at least 1"),
    ("steps -3", "steps must be at least 1"),
    ("points 0", "points must be at least 1"),
    ("h nan", "h must be finite and positive"),
    ("h -1", "h must be finite and positive"),
    ("h 0", "h must be finite and positive"),
    ("tmax inf", "tmax must be finite and positive"),
    ("tmax -1", "tmax must be finite and positive"),
    ("field s2 = (x+1) d2", "unknown variable 'x'"),
    ("field s1 = 2\u00b2 d1", "unexpected character '\u00b2'"),
])
def test_impossible_probe_settings_are_parse_errors(line, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_scenario(f"ambient C2\nfield v = z1 d1\n{line}\n", name="t")
    assert err.value.line == 3
    assert str(err.value).endswith("(line 3)")


def test_smallest_probe_settings_are_accepted():
    sc = parse_scenario("ambient C2\nfield v = z1 d1\ndepth 1\nsteps 1\n"
                        "points 1\nh 1e-300\ntmax 5e-324\n", name="t")
    assert (sc.config.depth, sc.config.steps, sc.config.n_points) == (1, 1, 1)
    assert sc.config.h == 1e-300 and sc.config.t_max == 5e-324
