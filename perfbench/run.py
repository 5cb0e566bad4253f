"""anticanon benchmark: one workload, one seed, one closed-loop run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bundled|ladder|lattice \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run instead, and the spans are written to
``perfbench/traces/<workload>.jsonl``.  Lines before it are a readable
summary.  End-to-end times are scaled to the reference machine's speed with
``calibrate.py``; the summary gives them unscaled too.  See
``perfbench/README.md`` for the workloads and metrics.

The program is imported from ``src/`` of the checkout; the benchmark exits
with status 2, printing no result, when that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from worker import CHECK_FAILED, ERROR, OK, SUCCEEDED  # noqa: E402

# Per-operation deadline of each workload: about three times its slowest
# case that finishes, measured on the reference machine (2 cores, Python
# 3.11.7): bundled p3_toric 0.9 s, ladder C2d2-sparseA 0.7 s, lattice C6g10
# 1.1 s.  A miss means the program got much slower or cannot finish at all,
# as the ladder's frontier case cannot (traced runs only, never counted as
# an operation).
DEADLINE_S = {"bundled": 3.0, "ladder": 2.0, "lattice": 3.5}
# Tail latency percentile: the highest of 50/75/90/95/99 that left at least
# ten samples beyond it in every workload at the first benchmarked version,
# kept fixed so that runs of different lengths compare.
TAIL_PERCENTILE = 75
# The worker gets this long beyond the measured time before it is killed.
WORKER_GRACE_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "reports_per_s": "1/s",
    "report_p50_s": "s",
    "report_tail_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "flows.flow_probe_s": "s",
    "flows.sample_points_s": "s",
    "flows.rk4_steps": "count",
    "flows.points_ratio": "ratio",
    "metric.completeness_probe_s": "s",
    "metric.ricci_probe_s": "s",
    "metric.ricci_certificate_s": "s",
    "metric.ricci_points_ratio": "ratio",
    "fields.sigma_s": "s",
    "metric.kahler_defect_s": "s",
    "metric.kahler_sample_s": "s",
    "exact.poly_gcd.calls": "count",
    "exact.poly_gcd_s": "s",
    "divisor.section_s": "s",
    "divisor.tangency_s": "s",
    "fields.brackets_s": "s",
    "cone.normal_form_s": "s",
    "cone.stokes_s": "s",
    "linsolve.calls": "count",
    "scenario.parse_s": "s",
    "import_s": "s",
    "report.serialize_s": "s",
    "trace.overhead_frac": "frac",
    "metric.kahler_frontier_done": "count",
}


def worker_env() -> dict:
    """The environment of every child: the seed comes only from the cases.

    ``ANTICANON_SEED`` could otherwise override a scenario's ``seed`` line
    (see the seed-precedence item in ROADMAP.md) and change a workload.
    """
    return {k: v for k, v in os.environ.items()
            if k not in ("ANTICANON_SEED", "PYTHONPATH")}


def call_worker(request: dict, timeout: float) -> "dict | None":
    """Run one worker process to completion; its JSON result, if any."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(request), capture_output=True,
                          text=True, env=worker_env(), timeout=timeout,
                          cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout) if proc.stdout.strip() else None


def round_factors(records: list[dict]) -> list[float]:
    """The speed factor of each round, from its calibration units."""
    units: dict[int, list[float]] = defaultdict(list)
    for r in records:
        units[r["round"]].append(r["calib_s"])
    return [calibrate.speed_factor(units[index]) for index in range(len(units))]


def typical_percentile(records: list[dict], latencies: list[float],
                       q: float) -> float:
    """Nearest-rank percentile ``q`` of a typical round.

    Every round has the same mix of case kinds (a kind is a case name up to
    any ``#k`` suffix).  Each kind stands at its median latency over the
    run, weighted by the number of its operations.  So the percentile lands
    on the same kind of case in every run, whatever the number of rounds.
    """
    by_kind: dict[str, list[float]] = defaultdict(list)
    for record, latency in zip(records, latencies, strict=True):
        by_kind[record["case"].split("#")[0]].append(latency)
    points = sorted((statistics.median(v), len(v)) for v in by_kind.values())
    need = q / 100 * len(latencies)
    seen = 0
    for value, count in points:
        seen += count
        if seen >= need:
            return value
    return points[-1][0]


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile ``q`` and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(math.ceil(q / 100 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def apply_oracle(records: list[dict]) -> None:
    """Check ladder reports against sympy; a mismatch fails the operation."""
    pending = [r for r in records if "oracle" in r]
    if not pending:
        return
    import oracle
    for record in pending:
        data = record.pop("oracle")
        if record["status"] != OK:
            continue
        problems = oracle.check_ladder_report(data["text"], data["section"],
                                              data["sigma"])
        if problems:
            record["status"] = CHECK_FAILED
            record["detail"] = "oracle: " + "; ".join(problems)


def summarize(records: list[dict]) -> tuple[int, int, bool]:
    attempted = len(records)
    failed = sum(1 for r in records if r["status"] not in SUCCEEDED)
    wrong = [r for r in records if r["status"] in (CHECK_FAILED, ERROR)]
    for r in wrong[:10]:
        print(f"FAILED {r['case']} (round {r['round']}): {r.get('detail')}",
              file=sys.stderr)
    return attempted, failed, not wrong


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "anticanon" / "__init__.py").is_file():
        print(f"anticanon sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("ANTICANON_SEED", None)

    request = {"mode": "run", "src": str(SRC), "workload": args.workload,
               "seed": args.seed, "seconds": args.seconds,
               "deadline": DEADLINE_S[args.workload], "trace": bool(args.trace),
               "scenario_dir": str(SRC / "anticanon" / "scenarios")}
    timeout = 2 * args.seconds + WORKER_GRACE_S
    metrics: dict[str, float] = {}
    if args.trace:
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        request["trace_out"] = str(traces / f"{args.workload}.jsonl")
        result = call_worker(request, timeout)
        metrics.update(result["layers"])
        print("self time per span (s, whole run):")
        rows = sorted(result["self_times"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            print(f"  {name:34s} calls {row['calls']:>8d}  total {row['total_s']:9.4f}"
                  f"  self {row['self_s']:9.4f}")
        print(f"tracing overhead: {metrics['trace.overhead_frac']:+.1%} "
              f"(traced operations vs the same operations untraced)")
        if result["frontier"] is not None:
            frontier = result["frontier"]
            print(f"frontier case {frontier['case']}: {frontier['status']} after "
                  f"{frontier['latency_s']:.2f} s (deadline {request['deadline']} s)")
    else:
        result = call_worker(request, timeout)
        records = result["records"]
        # Each operation, and the set-up sample after each round, is divided
        # by the speed factor of its round.
        factors = round_factors(records)
        raw = [r["latency_s"] for r in records]
        scaled = [r["latency_s"] / factors[r["round"]] for r in records]
        succeeded = sum(1 for r in records if r["status"] in SUCCEEDED)
        tail = typical_percentile(records, scaled, TAIL_PERCENTILE)
        metrics["setup_s"] = statistics.median(
            t / f for t, f in zip(result["setup_s"], factors, strict=True))
        metrics["reports_per_s"] = succeeded / sum(scaled)
        metrics["report_p50_s"] = typical_percentile(records, scaled, 50)
        metrics["report_tail_s"] = tail
        metrics["ok_frac"] = succeeded / len(records)
        metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024
        speed = sum(raw) / sum(scaled)
        raw_tail, raw_beyond = percentile(raw, TAIL_PERCENTILE)
        print(f"{len(records)} operations in {result['rounds']} rounds, "
              f"{sum(raw):.2f} s of them measured; times below are scaled to "
              f"the reference machine's speed (calibrate.py)")
        print(f"machine speed factor: {speed:.3f} (1 = reference, higher = slower)")
        print(f"unscaled: setup_s {statistics.median(result['setup_s']):.4f}, "
              f"reports_per_s "
              f"{succeeded / sum(raw):.4f}, p50 {statistics.median(raw):.4f} s, "
              f"p{TAIL_PERCENTILE} {raw_tail:.4f} s")
        print(f"report_tail_s is p{TAIL_PERCENTILE} of a typical round; "
              f"{sum(x > tail for x in scaled)} of {len(records)} operations "
              f"lie beyond it ({raw_beyond} beyond the unscaled p{TAIL_PERCENTILE})")
    apply_oracle(result["records"])
    attempted, failed, correct = summarize(result["records"])
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:30s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
