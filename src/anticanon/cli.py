"""Command-line interface.

Subcommands
-----------

``analyze``   run every analysis for a scenario and print a full report
``divisor``   determinant section, factorization, tangency
``metric``    sigma/metric data, optionally evaluated at an exact point
``cone``      lattice normal form, period constraints, cone dimension
``probe``     numeric probes only (completeness / ricci / flow)
``scenarios`` list the bundled scenario names

Scenario arguments accept either a bundled name (``p2_toric``) or a path to
a ``.scn`` file.  ``--json`` switches from the flat text rendering to
canonical JSON; with a fixed ``--seed`` the JSON output is byte-identical
across runs.

Exit codes: 0 success, 2 degenerate field basis, 3 scenario/expression
parse error, 1 any other failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import AnticanonError, DegenerateBasis, OnDivisor, ParseError
from .polyparse import parse_scalar
from .scenario import Scenario, bundled_scenario_names, load_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGENERATE = 2
EXIT_PARSE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anticanon",
        description=("Anticanonical toolkit: determinant divisors, induced "
                     "hermitian metrics, completeness and curvature probes, "
                     "and lattice cone data for polynomial vector-field "
                     "bases."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", help="bundled scenario name or .scn path")
        p.add_argument("--seed", type=int, default=None,
                       help="probe seed (overrides scenario file and "
                            "ANTICANON_SEED)")
        p.add_argument("--json", action="store_true",
                       help="emit canonical JSON instead of text")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the report to PATH instead of stdout")

    p_analyze = sub.add_parser("analyze", help="run all analyses")
    add_common(p_analyze)

    p_divisor = sub.add_parser("divisor", help="divisor section and tangency")
    add_common(p_divisor)

    p_metric = sub.add_parser("metric", help="metric data, optionally at a point")
    add_common(p_metric)
    p_metric.add_argument("--at", default=None, metavar="POINT",
                          help="comma-separated exact chart coordinates, "
                               "e.g. \"1,2\" or \"1+i,1/2\"")

    p_cone = sub.add_parser("cone", help="lattice normal form and cone data")
    add_common(p_cone)

    p_probe = sub.add_parser("probe", help="numeric probes")
    add_common(p_probe)
    p_probe.add_argument("--complete", action="store_true",
                         help="arc-length completeness probe")
    p_probe.add_argument("--ricci", action="store_true",
                         help="flat-curvature certificate and finite-difference probe")
    p_probe.add_argument("--flow", action="store_true",
                         help="divisor invariance under integrated flows")

    sub.add_parser("scenarios", help="list bundled scenarios")
    return parser


def _load(args: argparse.Namespace) -> Scenario:
    return load_scenario(args.scenario)


def _emit(args: argparse.Namespace, report: dict) -> None:
    from .report import render_text, serialize_report

    text = serialize_report(report) if args.json else render_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _subset(report: dict, keys: "tuple[str, ...]") -> dict:
    kept = {"schema", "scenario", "ambient", "seed", "fields", "basis"}
    return {k: v for k, v in report.items() if k in kept or k in keys}


def _metric_point_block(scenario: Scenario, point_text: str) -> dict:
    from .metric import metric_at
    from .report import PreparedModel

    model = PreparedModel(scenario)
    coords = [parse_scalar(chunk) for chunk in point_text.split(",")]
    if len(coords) != model.basis.chart.dim:
        raise ParseError(f"expected {model.basis.chart.dim} coordinates, "
                         f"got {len(coords)}")
    g = metric_at(model.metric, coords)
    entries = [[[float(z.real), float(z.imag)] for z in row]
               for row in g.to_lists()]
    return {
        "point": [str(c) for c in coords],
        "chart": model.chart_label,
        "metric": entries,
        "positive_definite": g.is_positive_definite(),
        "det": float(g.det()),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "scenarios":
        for name in bundled_scenario_names():
            print(name)
        return EXIT_OK

    # The analysis layers load only for the subcommands that run them.
    from .report import run_report

    try:
        scenario = _load(args)
        if args.command == "analyze":
            report = run_report(scenario, seed_override=args.seed)
        elif args.command == "divisor":
            report = _subset(run_report(scenario, seed_override=args.seed,
                                        analyses=("divisor",)), ("divisor",))
        elif args.command == "cone":
            report = _subset(run_report(scenario, seed_override=args.seed,
                                        analyses=("cone",)), ("cone",))
        elif args.command == "metric":
            report = _subset(run_report(scenario, seed_override=args.seed,
                                        analyses=("kahler",)), ("kahler",))
            if args.at is not None:
                report["at_point"] = _metric_point_block(scenario, args.at)
        elif args.command == "probe":
            wanted = []
            if args.complete:
                wanted.append("completeness")
            if args.ricci:
                wanted.append("ricci")
            if args.flow:
                wanted.append("flow")
            if not wanted:
                wanted = ["completeness", "ricci", "flow"]
            report = _subset(run_report(scenario, seed_override=args.seed,
                                        analyses=tuple(wanted)), tuple(wanted))
        else:   # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command}")
        _emit(args, report)
        return EXIT_OK
    except DegenerateBasis as exc:
        print(f"degenerate basis: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OnDivisor, AnticanonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
