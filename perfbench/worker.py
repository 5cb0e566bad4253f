"""Benchmark worker: one workload's closed loop in a fresh interpreter.

``run.py`` starts this file as a child process, sends one JSON request on
standard input and reads one JSON result from standard output.  The worker
imports anticanon from the ``src`` directory named in the request, so its
peak RSS is that of the program under test plus this loop.

Modes:

``setup``  import anticanon and parse the given scenario texts, then exit.
           A ``run`` worker times a fresh child in this mode after each
           round, for setup_s.
``run``    analyse whole rounds of generated cases until the time is up,
           checking every report.  With ``trace``, each round runs once
           untraced and once with the layer tracer installed; the
           difference between the two is the tracing overhead.  A traced
           ``ladder`` run then attempts the frontier case once.

One operation is ``run_report(parsed scenario, seed_override=seed)``
followed by ``serialize_report``, which is what ``anticanon analyze --json``
computes.  Each operation runs under a deadline delivered by ``SIGALRM`` in
this single thread; a missed deadline counts as a failed operation.  After
each operation, outside its latency, the worker times one calibration unit
(``calibrate.py``) so that ``run.py`` can scale out the machine's drift.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402  (the benchmark's own modules)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Outcomes of one operation.
OK = "ok"                      # report produced and every check held
EXPECTED_ERROR = "expected"    # raised the exception the case expects
DEADLINE = "deadline"          # cut off by the per-operation deadline
ERROR = "error"                # unexpected exception
CHECK_FAILED = "check"         # report produced but a check failed
SUCCEEDED = (OK, EXPECTED_ERROR)


class DeadlineExceeded(BaseException):
    """Raised by the SIGALRM handler; a BaseException so that no handler
    inside the program under test can swallow it."""


def _on_alarm(_signum, _frame):
    raise DeadlineExceeded()


# ---------------------------------------------------------------------------
# output checks: exact fields and agreement flags only, never probe floats
# ---------------------------------------------------------------------------


def check_report(report: dict, kind: str) -> list[str]:
    """Problems found in one report; an empty list means it passed."""
    problems = []
    kahler = report.get("kahler")
    if kahler is not None:
        if kahler["agreement"] is not True:
            problems.append("kahler.agreement is false")
        if kind == "shear" and not (kahler["is_abelian"] and kahler["is_kahler"]):
            problems.append("shear-conjugated torus basis not reported abelian and Kahler")
    completeness = report.get("completeness")
    if completeness is not None:
        if completeness["agreement"] is not True:
            problems.append("completeness.agreement is false")
        if completeness["probe"].get("agrees_with_symbolic") is False:
            problems.append("completeness.probe.agrees_with_symbolic is false")
    ricci = report.get("ricci")
    if ricci is not None and ricci["certificate"]["all_equal"] is not True:
        problems.append("ricci.certificate.all_equal is false")
    if kind == "lattice":
        cone = report.get("cone")
        if not cone:
            problems.append("lattice case produced no cone block")
        else:
            problems += check_cone(cone, int(report["ambient"][1:]))
    return problems


def check_cone(cone: dict, n: int) -> list[str]:
    """The (k, l, m) split and the dimension formulas of the cone layer."""
    k, l, m = cone["k"], cone["l"], cone["m"]
    problems = []
    if k + l + m != n:
        problems.append(f"k+l+m = {k + l + m} != n = {n}")
    stokes = n * n - (k * k + 2 * k * l + l * (l - 1) // 2)
    if cone["stokes_dim"] != stokes:
        problems.append(f"stokes_dim {cone['stokes_dim']} != {stokes}")
    if m == 0 and cone["cone_dim"] != n * n - l * (l + 1) // 2:
        problems.append(f"cone_dim {cone['cone_dim']} != {n * n - l * (l + 1) // 2}")
    return problems


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def run_op(anticanon, scenario, case: workloads.Case, deadline: float) -> dict:
    """One operation under the deadline, checked; returns its record."""
    record = {"case": case.name, "kind": case.kind}
    report = text = None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        report = anticanon.run_report(scenario, seed_override=case.seed)
        text = anticanon.serialize_report(report)
        record["status"] = OK
    except DeadlineExceeded:
        record["status"] = DEADLINE
    except Exception as exc:  # one failing case must not stop the loop
        expected = type(exc).__name__ == case.expect_error
        record["status"] = EXPECTED_ERROR if expected else ERROR
        record["detail"] = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    record["latency_s"] = time.perf_counter() - start
    if report is None:
        return record
    record["digest"] = hashlib.sha256(text.encode()).hexdigest()
    problems = check_report(report, case.kind)
    if case.expect_error:
        problems.append(f"expected {case.expect_error}, got a report")
    if problems:
        record["status"] = CHECK_FAILED
        record["detail"] = "; ".join(problems)
    if "ricci" in report:
        record["ricci_points"] = report["ricci"]["probe"]["points"]
    if case.kind in ("random", "shear"):
        record["oracle"] = {"text": case.text,
                            "section": report["divisor"]["section"],
                            "sigma": report["basis"]["sigma"]}
    return record


def run_round(anticanon, request: dict, index: int, tracer=None) -> dict:
    """One round of cases, closed loop with one client.

    In the first round each case runs ``repeat`` times in a row with the
    same seed, and every canonical serialization must equal the first one
    byte for byte.  Later rounds bring new cases, so that a run averages
    over more inputs.  Parsing is timed apart from the operations.
    """
    cases = workloads.round_cases(request["workload"], request["seed"], index,
                                  request["scenario_dir"])
    t0 = time.perf_counter()
    scenarios = [anticanon.parse_scenario(c.text, c.name) for c in cases]
    parse_s = time.perf_counter() - t0
    records: list[dict] = []
    t0 = time.perf_counter()
    for case, scenario in zip(cases, scenarios):
        first_digest = None
        for rep in range(case.repeat if index == 0 else 1):
            if tracer is not None:
                tracer.begin_op()
            record = run_op(anticanon, scenario, case, request["deadline"])
            record["round"] = index
            record["calib_s"] = calibrate.unit()
            if rep == 0:
                first_digest = record.get("digest")
            elif (record["status"] == OK and first_digest is not None
                  and record["digest"] != first_digest):
                record["status"] = CHECK_FAILED
                record["detail"] = "serialization differs from the run before"
            if rep or index:   # the oracle checks each first-round case once
                record.pop("oracle", None)
            records.append(record)
    return {"records": records, "busy_s": time.perf_counter() - t0,
            "parse_s": parse_s}


def time_setup(request: dict, texts: list[str]) -> float:
    """Wall time of a fresh interpreter in ``setup`` mode: start, import
    anticanon, parse ``texts``, exit.  This worker waits for it."""
    setup = {"mode": "setup", "src": request["src"], "texts": texts}
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__], input=json.dumps(setup), text=True,
                   capture_output=True, check=True, timeout=60)
    return time.perf_counter() - start


def run_loop(anticanon, request: dict, tracer=None) -> dict:
    """Whole rounds until ``seconds`` of operations have been measured.

    Only whole rounds run, so the case mix of a run does not depend on where
    the clock runs out.  Without a tracer, a set-up sample follows each
    round, so that set-up is measured across the run and can be scaled by
    the round's calibration units.  With a ``tracer``, each round runs
    untraced and then again traced, so that both see the same inputs at
    nearly the same time; the untraced records are returned under
    ``untraced``.
    """
    total = {"records": [], "busy_s": 0.0, "parse_s": 0.0, "rounds": 0,
             "untraced": [], "untraced_busy_s": 0.0, "setup_s": []}
    setup_texts = [c.text for c in workloads.round_cases(
        request["workload"], request["seed"], 0, request["scenario_dir"])]
    while (total["untraced_busy_s"] if tracer else total["busy_s"]) < request["seconds"]:
        index = total["rounds"]
        if tracer is not None:
            plain = run_round(anticanon, request, index)
            total["untraced"] += [{"status": r["status"], "latency_s": r["latency_s"]}
                                  for r in plain["records"]]
            total["untraced_busy_s"] += plain["busy_s"]
            tracer.install()
        try:
            result = run_round(anticanon, request, index, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        total["records"] += result["records"]
        total["busy_s"] += result["busy_s"]
        total["parse_s"] += result["parse_s"]
        total["rounds"] += 1
        if tracer is None:
            total["setup_s"].append(time_setup(request, setup_texts))
    return total


def tracing_overhead(result: dict) -> float:
    """Traced over untraced time of the same operations, minus one, over the
    operations that finished in both runs."""
    pairs = [(a["latency_s"], b["latency_s"])
             for a, b in zip(result["records"], result["untraced"], strict=True)
             if a["status"] != DEADLINE and b["status"] != DEADLINE]
    untraced = sum(b for _a, b in pairs)
    return sum(a for a, _b in pairs) / untraced - 1.0 if untraced else 0.0


def frontier_probe(anticanon, request: dict) -> dict:
    """The ladder's random C^3 linear case, once, under the deadline.

    It is not an operation of the workload, so a miss is not a failure; the
    traced run reports whether it finished.
    """
    case = workloads.frontier_case(request["seed"])
    scenario = anticanon.parse_scenario(case.text, case.name)
    record = run_op(anticanon, scenario, case, request["deadline"])
    record.pop("oracle", None)
    return record


def main() -> int:
    request = json.loads(sys.stdin.read())
    sys.path.insert(0, request["src"])
    t0 = time.perf_counter()
    import anticanon
    import_s = time.perf_counter() - t0
    if request["mode"] == "setup":
        for text in request["texts"]:
            anticanon.parse_scenario(text)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    if not request["trace"]:
        result = run_loop(anticanon, request)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        tracer = tracing.Tracer()
        result = run_loop(anticanon, request, tracer=tracer)
        result["layers"] = tracing.layer_metrics(tracer, result, import_s)
        result["layers"]["trace.overhead_frac"] = tracing_overhead(result)
        frontier = (frontier_probe(anticanon, request)
                    if request["workload"] == "ladder" else None)
        result["frontier"] = frontier
        result["layers"]["metric.kahler_frontier_done"] = float(
            frontier is not None and frontier["status"] == OK)
        result["self_times"] = tracer.self_times()
        if request.get("trace_out"):
            tracer.write(request["trace_out"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
