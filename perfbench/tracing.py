"""Spans and counters recorded from outside anticanon.

The tracer wraps the public functions at each layer boundary of the program
with timing wrappers.  It replaces the module attributes that callers look
up at call time, so nothing inside ``src/`` changes.  Wrapped are:

* every function ``anticanon.report`` imports from a layer (cone, divisor,
  flows, metric, sampling) and the ``FieldBasis`` methods it calls;
* the exact-kernel entry points ``poly_gcd``, ``poly_det``,
  ``squarefree_decompose`` and ``poly_divmod``, in every anticanon module
  that binds them, so calls from inside ``exact`` itself are seen too;
* the ``linsolve`` functions, as ``cone``, ``fields`` and ``metric`` import
  them, so only calls into that layer are counted.

Spans are kept in memory as ``(name, start, end, parent, op)`` and written
out once at the end; ``op`` is the index of the operation that caused them.  A span's self time is its duration minus its
children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from array import array
from collections import defaultdict
from functools import cached_property
from time import perf_counter

EXACT_KERNEL = ("poly_gcd", "poly_det", "squarefree_decompose", "poly_divmod")

# (module whose namespace is patched, attribute, span name)
LAYER_FUNCTIONS = (
    ("cone", "normal_form", "cone.normal_form"),
    ("cone", "stokes_constraints", "cone.stokes_constraints"),
    ("cone", "cone_dimension", "cone.cone_dimension"),
    ("divisor", "divisor_affine", "divisor.divisor_affine"),
    ("divisor", "divisor_projective", "divisor.divisor_projective"),
    ("divisor", "dehomogenize", "divisor.dehomogenize"),
    ("divisor", "format_factors", "divisor.format_factors"),
    ("divisor", "tangency_affine", "divisor.tangency_affine"),
    ("divisor", "tangency_projective", "divisor.tangency_projective"),
    ("flows", "flow_invariance_probe", "flows.flow_invariance_probe"),
    ("flows", "sample_divisor_points", "flows.sample_divisor_points"),
    ("metric", "build_metric", "metric.build_metric"),
    ("metric", "completeness_probe", "metric.completeness_probe"),
    ("metric", "kahler_defect", "metric.kahler_defect"),
    ("metric", "ricci_certificate", "metric.ricci_certificate"),
    ("metric", "ricci_probe", "metric.ricci_probe"),
    ("sampling", "generic_point", "sampling.generic_point"),
    ("sampling", "rng_for", "sampling.rng_for"),
)

# (module, class, attribute, span name); cached properties keep caching.
LAYER_METHODS = (
    ("fields", "FieldBasis", "abelian_witness", "fields.abelian_witness"),
    ("fields", "FieldBasis", "subalgebra_witness", "fields.subalgebra_witness"),
    ("fields", "FieldBasis", "generic_rank", "fields.generic_rank"),
    ("metric", "KahlerDefect", "sample_max", "metric.kahler_sample"),
)

LINSOLVE_IMPORTERS = ("cone", "fields", "metric")


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self) -> None:
        # Spans as parallel columns; the numeric ones are arrays, which the
        # garbage collector does not traverse, so a long run stays cheap.
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")               # NaN while a span is open
        self.parents = array("q")            # -1 for a root span
        self.ops = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        """Attribute the following spans to the next operation.

        A deadline can interrupt a wrapper anywhere, even between the appends
        that open a span.  Clearing the stack keeps a cut-off operation from
        parenting the next operation's spans, and trimming the columns to a
        common length drops a half-opened span.
        """
        self.op += 1
        self._stack.clear()
        columns = (self.names, self.starts, self.ends, self.parents, self.ops)
        complete = min(len(c) for c in columns)
        for column in columns:
            del column[complete:]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(counters, arguments,
        result)`` may update counters once the call returns."""
        signature = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.ends.append(math.nan)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                if self._stack and self._stack[-1] == idx:
                    self._stack.pop()
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self.counters, bound.arguments, result)
            return result

        return traced

    # -- installing and removing wrappers ---------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"anticanon.{name}")
                for name in ("cone", "divisor", "exact", "fields", "flows",
                             "linsolve", "metric", "report", "sampling")}
        all_mods = [m for m in mods.values()]

        def everywhere(original, wrapped):
            for mod in all_mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

        for mod, attr, name in LAYER_FUNCTIONS:
            original = getattr(mods[mod], attr)
            everywhere(original, self.wrap(name, original, AFTER.get(name)))
        for attr in EXACT_KERNEL:
            original = getattr(mods["exact"], attr)
            everywhere(original, self.wrap(f"exact.{attr}", original))
        for importer in LINSOLVE_IMPORTERS:
            mod = mods[importer]
            for attr, value in list(vars(mod).items()):
                if (callable(value) and not isinstance(value, type)
                        and getattr(value, "__module__", "") == "anticanon.linsolve"):
                    self._patch(mod, attr, self.wrap(f"linsolve.{attr}", value))
        package = importlib.import_module("anticanon")
        for attr in ("run_report", "serialize_report"):
            self._patch(package, attr,
                        self.wrap(f"report.{attr}", getattr(package, attr)))
        for mod, cls_name, attr, name in LAYER_METHODS:
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, cached_property):
                wrapped = cached_property(self.wrap(name, original.func))
                wrapped.__set_name__(cls, attr)
            else:
                wrapped = self.wrap(name, original)
            self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------
    def _closed(self):
        """(index, name, duration, parent) of every span that was closed."""
        for idx, name in enumerate(self.names):
            end = self.ends[idx]
            if not math.isnan(end):
                yield idx, name, end - self.starts[idx], self.parents[idx]

    def outermost_time(self, names: "set[str]") -> float:
        """Total duration of spans named in ``names`` that have no ancestor
        named in ``names`` (so recursion is not counted twice)."""
        total = 0.0
        for _idx, name, duration, parent in self._closed():
            if name not in names:
                continue
            while parent >= 0 and self.names[parent] not in names:
                parent = self.parents[parent]
            if parent < 0:
                total += duration
        return total

    def calls(self, prefix: str) -> int:
        return sum(1 for name in self.names if name.startswith(prefix))

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed duration (nested calls of the same
        name count again) and self time (duration minus child spans)."""
        child_time = [0.0] * len(self.names)
        for _idx, _name, duration, parent in self._closed():
            if parent >= 0:
                child_time[parent] += duration
        table: dict[str, dict[str, float]] = {}
        for idx, name, duration, _parent in self._closed():
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[idx]
        return table

    def write(self, path) -> None:
        """One JSON object per span; ``end`` is null for a span cut off by a
        deadline before it could record its end."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, name in enumerate(self.names):
                end = self.ends[idx]
                fh.write(json.dumps({
                    "name": name, "start": self.starts[idx],
                    "end": None if math.isnan(end) else end,
                    "parent": self.parents[idx], "op": self.ops[idx]}) + "\n")


def _after_flow_probe(counters, args, result) -> None:
    counters["flows.rk4_steps"] += (len(result.sample_points)
                                    * len(args["basis"].fields) * args["steps"])


def _after_sample_points(counters, args, result) -> None:
    counters["flows.points_requested"] += args["count"]
    counters["flows.points_obtained"] += len(result)


AFTER = {
    "flows.flow_invariance_probe": _after_flow_probe,
    "flows.sample_divisor_points": _after_sample_points,
}


# Per-layer metric -> span names whose outermost spans it sums.
LAYER_TIMES = {
    "flows.flow_probe_s": {"flows.flow_invariance_probe"},
    "flows.sample_points_s": {"flows.sample_divisor_points"},
    "metric.completeness_probe_s": {"metric.completeness_probe"},
    "metric.ricci_probe_s": {"metric.ricci_probe"},
    "metric.ricci_certificate_s": {"metric.ricci_certificate"},
    "fields.sigma_s": {"metric.build_metric"},
    "metric.kahler_defect_s": {"metric.kahler_defect"},
    "metric.kahler_sample_s": {"metric.kahler_sample"},
    "exact.poly_gcd_s": {"exact.poly_gcd"},
    "divisor.section_s": {"exact.poly_det", "exact.squarefree_decompose"},
    "divisor.tangency_s": {"divisor.tangency_affine", "divisor.tangency_projective"},
    "fields.brackets_s": {"fields.abelian_witness", "fields.subalgebra_witness"},
    "cone.normal_form_s": {"cone.normal_form"},
    "cone.stokes_s": {"cone.stokes_constraints"},
    "report.serialize_s": {"report.serialize_report"},
}

# Curvature samples report._ricci_block asks for per report.
RICCI_TARGET_POINTS = 20


def layer_metrics(tracer: Tracer, traced: dict, import_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced run, per attempted operation.

    Times and counts are divided by the number of operations, so runs of
    different lengths compare.  A ratio with nothing attempted reads 1.0
    (no shortfall).
    """
    records = traced["records"]
    ops = max(len(records), 1)
    out = {name: tracer.outermost_time(spans) / ops
           for name, spans in LAYER_TIMES.items()}
    out["exact.poly_gcd.calls"] = tracer.calls("exact.poly_gcd") / ops
    out["linsolve.calls"] = tracer.calls("linsolve.") / ops
    out["flows.rk4_steps"] = tracer.counters["flows.rk4_steps"] / ops
    requested = tracer.counters["flows.points_requested"]
    out["flows.points_ratio"] = (tracer.counters["flows.points_obtained"] / requested
                                 if requested else 1.0)
    ricci = [r["ricci_points"] for r in records if "ricci_points" in r]
    out["metric.ricci_points_ratio"] = (sum(ricci) / (RICCI_TARGET_POINTS * len(ricci))
                                        if ricci else 1.0)
    out["scenario.parse_s"] = traced["parse_s"] / max(traced["rounds"], 1)
    out["import_s"] = import_s
    return out
