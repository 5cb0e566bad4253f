"""Tests of the benchmark's own machinery: generators, checks, deadline,
tracer and oracle.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "src" / "anticanon" / "scenarios"
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import anticanon  # noqa: E402
from anticanon.fields import bracket  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _cases(workload: str, seed: int, index: int = 0):
    return workloads.round_cases(workload, seed, index, SCENARIOS)


def _case(workload: str, name: str, seed: int = 11, index: int = 0):
    return next(c for c in _cases(workload, seed, index) if c.name == name)


@pytest.fixture
def alarm():
    previous = worker.signal.signal(worker.signal.SIGALRM, worker._on_alarm)
    yield
    worker.signal.signal(worker.signal.SIGALRM, previous)


# -- generators --------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_and_seed_dependent(workload):
    assert _cases(workload, 5) == _cases(workload, 5)
    assert _cases(workload, 5, 1) == _cases(workload, 5, 1)
    assert _cases(workload, 5) != _cases(workload, 6)
    assert _cases(workload, 5, 0) != _cases(workload, 5, 1)
    if workload != "bundled":   # bundled texts are fixed; only seeds vary
        texts = {c.text for c in _cases(workload, 5)}
        assert texts.isdisjoint(c.text for c in _cases(workload, 6))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_text_parses(workload):
    for index in range(3):
        for case in _cases(workload, 21, index):
            scenario = anticanon.parse_scenario(case.text, case.name)
            if workload == "ladder":
                assert scenario.analyses == ("divisor", "kahler")
            if workload == "lattice":
                assert scenario.analyses == ("cone",)
                assert len(scenario.lattice.generators) >= 3


def _pairwise_brackets(case):
    basis = anticanon.parse_scenario(case.text).affine_basis()
    fields = basis.fields
    return [bracket(fields[a], fields[b]).is_zero()
            for a in range(len(fields)) for b in range(a + 1, len(fields))]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_shear_bases_commute_and_random_bases_do_not(seed):
    cases = _cases("ladder", seed)
    for case in cases:
        zero = _pairwise_brackets(case)
        if case.kind == "shear":
            assert all(zero), case.name
        else:
            assert not all(zero), case.name
    assert {c.kind for c in cases} == {"shear", "random"}


def test_frontier_case_is_a_seeded_c3_linear_basis_outside_the_rounds():
    frontier = workloads.frontier_case(9)
    assert frontier == workloads.frontier_case(9) != workloads.frontier_case(10)
    assert frontier.name == "C3d1-random" and "ambient C3" in frontier.text
    assert frontier.repeat == 1
    for index in range(2):
        assert all(c.text != frontier.text for c in _cases("ladder", 9, index))
    anticanon.parse_scenario(frontier.text, frontier.name)


def test_lattice_shapes_cover_residual_and_semi_torus():
    assert any(g < n for n, g in workloads.LATTICE_SHAPES)
    assert any(n <= g <= 2 * n for n, g in workloads.LATTICE_SHAPES)


# -- operations, checks and the deadline -----------------------------------------


def _fake(run_report):
    return SimpleNamespace(run_report=run_report,
                           serialize_report=anticanon.serialize_report)


def _fake_case(kind="bundled", expect_error=None):
    return workloads.Case("fake", "", 1, kind, expect_error)


def test_deadline_miss_is_a_failed_operation(alarm):
    def spin(_scenario, seed_override):
        while True:
            pass

    record = worker.run_op(_fake(spin), None, _fake_case(), deadline=0.05)
    record["round"] = 0
    assert record["status"] == worker.DEADLINE
    assert record["latency_s"] >= 0.05
    attempted, failed, correct = run.summarize([record])
    assert (attempted, failed, correct) == (1, 1, True)


def test_loop_records_every_operation_including_missed_deadlines(alarm):
    request = {"workload": "ladder", "seed": 3, "seconds": 0.0, "deadline": 0.002,
               "scenario_dir": str(SCENARIOS)}
    result = worker.run_round(anticanon, request, 0)
    cases = _cases("ladder", 3)
    assert len(result["records"]) == sum(c.repeat for c in cases)
    missed = [r for r in result["records"] if r["status"] == worker.DEADLINE]
    if not missed:
        pytest.skip("every ladder case finished within 2 ms")
    assert all(r["calib_s"] > 0 for r in result["records"])
    attempted, failed, correct = run.summarize(result["records"])
    assert attempted == len(result["records"]) and failed >= len(missed) and correct


def test_frontier_probe_reports_its_outcome_without_failing_the_run(alarm):
    request = {"workload": "ladder", "seed": 3, "deadline": 0.05}
    record = worker.frontier_probe(anticanon, request)
    assert record["case"] == "C3d1-random"
    assert record["status"] in (worker.DEADLINE, worker.OK)
    assert "oracle" not in record


def test_repeat_after_a_missed_deadline_is_not_a_mismatch(alarm, monkeypatch):
    calls = []

    def first_too_slow(scenario, seed_override):
        calls.append(1)
        if len(calls) == 1:
            while True:
                pass
        return {"divisor": {"section": "z1"}, "basis": {"sigma": [["1"]]}}

    monkeypatch.setattr(workloads, "round_cases",
                        lambda *args: [workloads.Case("only", "", 1, "bundled")])
    fake = SimpleNamespace(run_report=first_too_slow,
                           serialize_report=anticanon.serialize_report,
                           parse_scenario=lambda text, name: None)
    request = {"workload": "bundled", "seed": 1, "deadline": 0.05, "scenario_dir": ""}
    records = worker.run_round(fake, request, 0)["records"]
    assert [r["status"] for r in records] == [worker.DEADLINE, worker.OK]


def test_failed_checks_and_errors_are_failed_operations_not_crashes(alarm):
    def disagreeing(_scenario, seed_override):
        return {"kahler": {"agreement": False, "is_abelian": True, "is_kahler": False}}

    def broken(_scenario, seed_override):
        raise ValueError("boom")

    checked = worker.run_op(_fake(disagreeing), None, _fake_case(), 5.0)
    errored = worker.run_op(_fake(broken), None, _fake_case(), 5.0)
    unexpected_report = worker.run_op(_fake(lambda s, seed_override: {}), None,
                                      _fake_case(expect_error="DegenerateBasis"), 5.0)
    assert checked["status"] == worker.CHECK_FAILED
    assert errored["status"] == worker.ERROR
    assert unexpected_report["status"] == worker.CHECK_FAILED
    for r in (checked, errored, unexpected_report):
        r["round"] = 0
    assert run.summarize([checked, errored, unexpected_report]) == (3, 3, False)


def test_cone_check_catches_wrong_dimensions():
    good = {"k": 1, "l": 3, "m": 0, "stokes_dim": 6, "cone_dim": 10}
    assert worker.check_cone(good, 4) == []
    assert worker.check_cone(dict(good, stokes_dim=7), 4)
    assert worker.check_cone(dict(good, cone_dim=9), 4)
    assert worker.check_cone(dict(good, m=1), 4)


def test_expected_degenerate_outcome_counts_as_success(alarm):
    case = _case("bundled", "p2_pencil")
    scenario = anticanon.parse_scenario(case.text, case.name)
    record = worker.run_op(anticanon, scenario, case, 5.0)
    assert record["status"] == worker.EXPECTED_ERROR


def test_cut_off_computation_leaves_no_state_behind(alarm):
    case = _case("ladder", "C2d1-sparseA")
    scenario = anticanon.parse_scenario(case.text, case.name)
    before = worker.run_op(anticanon, scenario, case, 30.0)
    assert before["status"] == worker.OK

    tracer = tracing.Tracer()
    tracer.install()
    try:
        frontier = workloads.frontier_case(11)
        cut_scenario = anticanon.parse_scenario(frontier.text, frontier.name)
        tracer.begin_op()
        cut = worker.run_op(anticanon, cut_scenario, frontier, 0.001)
        if cut["status"] != worker.DEADLINE:
            pytest.skip("the case finished within 1 ms; nothing was cut off")
        tracer.begin_op()
        after = worker.run_op(anticanon, scenario, case, 30.0)
    finally:
        tracer.uninstall()
    assert after["status"] == worker.OK
    assert after["digest"] == before["digest"]
    first_of_next = tracer.ops.index(1)
    assert tracer.parents[first_of_next] == -1


# -- tracer --------------------------------------------------------------------


def test_tracer_records_layers_and_restores_the_program(alarm):
    import anticanon.exact as exact
    original, original_run = exact.poly_gcd, anticanon.run_report
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert exact.poly_gcd is not original
        case = _case("bundled", "c2_incomplete")
        tracer.begin_op()
        worker.run_op(anticanon, anticanon.parse_scenario(case.text), case, 30.0)
    finally:
        tracer.uninstall()
    assert exact.poly_gcd is original
    assert anticanon.run_report is original_run
    table = tracer.self_times()
    for name in ("report.run_report", "flows.flow_invariance_probe",
                 "metric.build_metric", "exact.poly_det"):
        assert table[name]["calls"] >= 1
    for row in table.values():
        assert row["self_s"] <= row["total_s"] + 1e-9
    assert tracer.counters["flows.rk4_steps"] > 0
    root = table["report.run_report"]["total_s"]
    assert tracer.outermost_time({"flows.flow_invariance_probe"}) < root


def test_tracer_drops_a_half_opened_span_at_the_next_operation():
    tracer = tracing.Tracer()
    traced = tracer.wrap("x", lambda: None)
    tracer.begin_op()
    traced()
    tracer.names.append("cut")      # a deadline hit between the appends
    tracer.begin_op()
    traced()
    assert tracer.names == ["x", "x"]
    assert list(tracer.ops) == [0, 1]
    assert list(tracer.parents) == [-1, -1]


# -- inputs and statistics ----------------------------------------------------------


def test_anticanon_seed_is_removed_from_the_worker_environment(monkeypatch):
    monkeypatch.setenv("ANTICANON_SEED", "99")
    assert "ANTICANON_SEED" not in run.worker_env()


def test_percentile_counts_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    assert run.percentile(values, 75) == (30.0, 10)
    assert run.percentile(values, 50) == (20.0, 20)


def test_each_round_gets_the_speed_factor_of_its_calibration_units():
    unit = calibrate.REFERENCE_S
    records = [{"round": 0, "calib_s": unit}, {"round": 0, "calib_s": 3 * unit},
               {"round": 1, "calib_s": unit}]
    assert run.round_factors(records) == pytest.approx([2.0, 1.0])
    assert calibrate.unit() > 0


def test_typical_percentile_lands_on_the_same_kind_whatever_the_rounds():
    costs = {"a": 1.0, "b": 2.0, "c#0": 3.0, "c#1": 3.0, "d": 9.0}

    def run_of(rounds):
        records = [{"case": name} for _ in range(rounds) for name in costs]
        latencies = [costs[r["case"]] + 0.01 * i for i, r in enumerate(records)]
        return records, latencies

    for rounds in (1, 4, 7):
        records, latencies = run_of(rounds)
        p50 = run.typical_percentile(records, latencies, 50)
        p75 = run.typical_percentile(records, latencies, 75)
        assert 3.0 <= p50 < 4.0 and 3.0 <= p75 < 4.0
        assert run.typical_percentile(records, latencies, 100) >= 9.0


# -- oracle --------------------------------------------------------------------------


def test_oracle_accepts_reports_and_rejects_tampered_ones():
    oracle = pytest.importorskip("oracle")
    case = _case("ladder", "C2d1-sparseB", seed=3)
    report = anticanon.run_report(anticanon.parse_scenario(case.text),
                                  seed_override=case.seed)
    section, sigma = report["divisor"]["section"], report["basis"]["sigma"]
    assert oracle.check_ladder_report(case.text, section, sigma) == []
    tampered = [row[:] for row in sigma]
    tampered[0][1] = f"2*({tampered[0][1]})"
    assert oracle.check_ladder_report(case.text, section, tampered)
    assert oracle.check_ladder_report(case.text, section + " + z1", sigma)


# -- the metric names agree with BENCHMARK.json ---------------------------------------


def test_metric_names_match_benchmark_json():
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    traced = {"records": [], "parse_s": 0.0, "rounds": 1}
    layers = tracing.layer_metrics(tracing.Tracer(), traced, 0.0)
    added_by_worker = {"trace.overhead_frac", "metric.kahler_frontier_done"}
    assert set(layers) | added_by_worker == set(run.LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
