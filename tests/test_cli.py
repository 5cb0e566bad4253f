"""Report pipeline and command-line interface, including determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from anticanon.cli import EXIT_DEGENERATE, EXIT_OK, EXIT_PARSE, main
from anticanon.errors import DegenerateBasis
from anticanon.report import resolve_seed, run_report, serialize_report
from anticanon.scenario import load_scenario, parse_scenario


def _run(*args, env=None):
    cmd = [sys.executable, "-m", "anticanon.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


# ---------------------------------------------------------------------------
# pipeline-level behavior
# ---------------------------------------------------------------------------


def test_run_report_blocks_present():
    rep = run_report(load_scenario("p2_toric"))
    for key in ("schema", "scenario", "seed", "fields", "basis", "divisor",
                "kahler", "completeness", "ricci", "flow", "cone"):
        assert key in rep
    assert rep["schema"] == 1
    assert rep["basis"]["degenerate"] is False


def test_run_report_is_deterministic_in_process():
    a = serialize_report(run_report(load_scenario("p3_toric")))
    b = serialize_report(run_report(load_scenario("p3_toric")))
    assert a == b


def test_run_report_seed_changes_samples_not_verdicts():
    r1 = run_report(load_scenario("p2_toric"), seed_override=1)
    r2 = run_report(load_scenario("p2_toric"), seed_override=2)
    assert r1["seed"] != r2["seed"]
    assert r1["kahler"]["is_kahler"] == r2["kahler"]["is_kahler"]
    assert r1["completeness"]["probe"]["verdict"] == \
        r2["completeness"]["probe"]["verdict"]
    assert serialize_report(r1) != serialize_report(r2)


def test_run_report_degenerate_raises():
    with pytest.raises(DegenerateBasis):
        run_report(load_scenario("p2_pencil"))


def test_analyses_subset_keeps_other_blocks_out():
    rep = run_report(load_scenario("p2_toric"), analyses=("divisor",))
    assert "divisor" in rep and "flow" not in rep and "ricci" not in rep


def test_cone_block_no_lattice_is_null():
    rep = run_report(load_scenario("c2_incomplete"), analyses=("cone",))
    assert rep["cone"] is None


def test_serialized_floats_are_exact_reprs():
    rep = run_report(load_scenario("p2_toric"))
    text = serialize_report(rep)
    parsed = json.loads(text)
    assert parsed["flow"]["max_residual"] == rep["flow"]["max_residual"]


# ---------------------------------------------------------------------------
# CLI behavior (in-process main for speed, subprocess for determinism)
# ---------------------------------------------------------------------------


def test_main_analyze_ok(capsys):
    assert main(["analyze", "p2_nilpotent"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "divisor.section = z2^3" in out
    assert "completeness.complete = true" in out


def test_main_divisor_json(capsys):
    assert main(["divisor", "p2_toric", "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["divisor"]["section"] == "z0*z1*z2"
    assert data["divisor"]["reduced"] is True
    assert "flow" not in data


def test_main_metric_at_point(capsys):
    assert main(["metric", "p2_toric", "--at", "1,2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "at_point.positive_definite = true" in out
    assert "at_point.det = 0.25" in out


def test_main_metric_bad_point_count(capsys):
    assert main(["metric", "p2_toric", "--at", "1,2,3"]) == EXIT_PARSE


def test_main_cone(capsys):
    assert main(["cone", "p3_toric", "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["cone"]["cone_dim"] == 3
    assert data["cone"]["semi_torus"] is True


def test_main_probe_selects_analyses(capsys):
    assert main(["probe", "c2_incomplete", "--complete"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "completeness.probe.verdict = finite" in out
    assert "ricci" not in out


def test_main_degenerate_exit(capsys):
    assert main(["analyze", "p2_pencil"]) == EXIT_DEGENERATE
    assert "degenerate" in capsys.readouterr().err


def test_main_unknown_scenario_exit(capsys):
    assert main(["analyze", "nope_nope"]) == EXIT_PARSE


def test_main_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("ambient C2\nfield v = z1 dZ\n")
    assert main(["analyze", str(bad)]) == EXIT_PARSE
    assert "line 2" in capsys.readouterr().err


def test_main_non_ascii_digit_exit(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("ambient C2\nfield s1 = 2\u00b2 d1\nfield s2 = d2\n",
                   encoding="utf-8")
    assert main(["divisor", str(bad)]) == EXIT_PARSE
    assert "unexpected character '\u00b2' (line 2)" in capsys.readouterr().err


def test_main_impossible_probe_setting_exit(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("ambient C2\nfield s1 = d1\nfield s2 = d2\ndepth 0\n")
    assert main(["analyze", str(bad)]) == EXIT_PARSE
    assert "depth must be at least 1 (got 0) (line 4)" in capsys.readouterr().err


def test_main_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["analyze", "p2_toric", "--json", "--out", str(target)]) \
        == EXIT_OK
    assert capsys.readouterr().out == ""
    data = json.loads(target.read_text())
    assert data["scenario"] == "p2_toric"


def test_scenarios_listing(capsys):
    assert main(["scenarios"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert "p2_toric" in out and "c2_incomplete" in out


def test_subprocess_byte_identical_reports(tmp_path):
    r1 = _run("analyze", "p2_toric", "--json", "--seed", "77")
    r2 = _run("analyze", "p2_toric", "--json", "--seed", "77")
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert len(r1.stdout) > 100


def test_subprocess_env_seed(tmp_path):
    import os

    path = tmp_path / "unseeded.scn"
    path.write_text("ambient C2\nfield s1 = d1\nfield s2 = z1^2 d2\n")
    env = dict(os.environ)
    env["ANTICANON_SEED"] = "31"
    r = _run("analyze", str(path), "--json", env=env)
    assert r.returncode == 0
    assert json.loads(r.stdout)["seed"] == 31


def test_seed_precedence_flag_file_env_default(monkeypatch):
    seeded = load_scenario("c2_incomplete")          # has "seed 1234"
    unseeded = parse_scenario("ambient C2\nfield s1 = d1\nfield s2 = d2\n")
    monkeypatch.delenv("ANTICANON_SEED", raising=False)
    assert resolve_seed(unseeded, None) == 1234
    monkeypatch.setenv("ANTICANON_SEED", "99")
    assert resolve_seed(unseeded, None) == 99
    assert resolve_seed(seeded, None) == 1234        # the file beats the env
    assert resolve_seed(seeded, 7) == 7              # the flag beats both


def test_malformed_env_seed_is_a_parse_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "unseeded.scn"
    path.write_text("ambient C2\nfield s1 = d1\nfield s2 = d2\n")
    monkeypatch.setenv("ANTICANON_SEED", "12x")
    assert main(["divisor", str(path), "--json"]) == EXIT_PARSE
    assert "ANTICANON_SEED" in capsys.readouterr().err
    assert main(["divisor", str(path), "--json", "--seed", "5"]) == EXIT_OK
