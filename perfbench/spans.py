"""Spans around favfa's public functions, recorded from outside the package.

A :class:`Tracer` replaces each function in :data:`WRAPPED` at the module
attribute its callers look it up through (``favfa.report.fit_logit`` covers
the main fits, ``favfa.logit.fit_logit`` the bootstrap refits), records one
span per call and restores the originals on :meth:`Tracer.uninstall`.
Spans stay in memory; :func:`layer_metrics` turns them into per-operation
layer figures once the run is over.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

#: (module, attribute, span name). Spans with the same name add up per
#: operation.
WRAPPED = (
    ("favfa.report", "load_images", "data.load_images"),
    ("favfa.cli", "load_images", "data.load_images"),
    ("favfa.report", "consolidate_identity_attributes", "data.consolidate"),
    ("favfa.cli", "consolidate_identity_attributes", "data.consolidate"),
    ("favfa.report", "load_pairs", "data.load_pairs"),
    ("favfa.report", "covariates_for_pairs", "data.covariates"),
    ("favfa.report", "optimize_threshold", "metrics.optimize_threshold"),
    ("favfa.metrics", "optimize_threshold", "metrics.optimize_threshold"),
    ("favfa.report", "fairness_report", "metrics.fairness_report"),
    ("favfa.report", "group_confusion", "metrics.group_confusion"),
    ("favfa.metrics", "group_confusion", "metrics.group_confusion"),
    ("favfa.report", "build_design", "logit.build_design"),
    ("favfa.report", "fit_logit", "logit.fit_logit"),
    ("favfa.logit", "fit_logit", "logit.fit_logit"),
    ("favfa.report", "marginal_effects", "logit.marginal_effects"),
    ("favfa.logit", "marginal_effects", "logit.marginal_effects"),
    ("favfa.report", "bootstrap_marginal_effects", "logit.bootstrap"),
    ("favfa.report", "anova_distances", "anova.anova_distances"),
    ("favfa.report", "simulate_residuals", "diagnostics.simulate_residuals"),
    ("favfa.report", "marginal_effects_svg", "charts.svg"),
    ("favfa.report", "eta_squared_svg", "charts.svg"),
    ("favfa.report", "qq_plot_svg", "charts.svg"),
    ("favfa.report", "canonical_json", "util.canonical_json"),
    ("favfa.cli", "run_analysis", "report.run_analysis"),
    ("favfa.cli", "select_id_pool", "planner.select_id_pool"),
    ("favfa.cli", "assign_styles", "planner.assign_styles"),
    ("favfa.cli", "plan_diversity_report", "planner.plan_diversity_report"),
    ("favfa.cli", "plan_to_jsonl", "planner.plan_to_jsonl"),
)

#: Spans whose allocation peak is measured, in operations run with
#: ``alloc=True``. tracemalloc slows the code it watches, so those
#: operations give no timings.
ALLOC_SPANS = {
    "diagnostics.simulate_residuals": "diagnostics.alloc_peak_mb",
    "planner.select_id_pool": "planner.alloc_peak_mb",
    "planner.assign_styles": "planner.alloc_peak_mb",
    "planner.plan_diversity_report": "planner.alloc_peak_mb",
    "planner.plan_to_jsonl": "planner.alloc_peak_mb",
}

ROOT = "cli"


@dataclass
class Span:
    name: str
    op: int
    span_id: int
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _counts(name: str, func, args: tuple, kwargs: dict, result: object) -> dict:
    """Counts read from a wrapped call's arguments and return value."""
    if name in ("data.load_images", "data.load_pairs"):
        return {"rows": len(result)}
    if name == "logit.fit_logit":
        return {"iterations": result.iterations, "converged": bool(result.converged)}
    if name == "logit.bootstrap":
        bound = inspect.signature(func).bind(*args, **kwargs)
        bound.apply_defaults()
        return {"used": result[1], "requested": bound.arguments["n_boot"]}
    return {}


class Tracer:
    """Span recorder for one process: each operation runs between
    :meth:`begin_op` and :meth:`end_op`, with the wrappers installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root: Span | None = None
        self._originals: list[tuple[object, str, object]] = []
        self._alloc = False

    def _new_span(self, name: str, op: int, parent: int | None) -> Span:
        with self._lock:
            span = Span(name, op, self._next_id, parent, threading.get_ident(), 0.0)
            self._next_id += 1
            self.spans.append(span)
        return span

    def _wrap(self, name: str, func):
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            # calls on worker-pool threads have no caller span of their own
            parent = stack[-1] if stack else self._root
            span = self._new_span(name, parent.op, parent.span_id)
            alloc = self._alloc and name in ALLOC_SPANS
            if alloc:
                tracemalloc.start()
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if alloc:
                    span.counts["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            span.counts.update(_counts(name, func, args, kwargs, result))
            return result

        return wrapper

    def install(self, alloc: bool) -> None:
        """Wrap every function in WRAPPED; with ``alloc`` the spans in
        ALLOC_SPANS also record their tracemalloc peak."""
        self._alloc = alloc
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def begin_op(self, op: int) -> None:
        self._root = self._new_span(ROOT, op, None)
        self._local.stack = [self._root]
        self._root.start = time.perf_counter()

    def end_op(self) -> None:
        self._root.end = time.perf_counter()
        self._local.stack = []
        self._root = None


# ---------------------------------------------------------------- analysis


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time(span: dict, children: list[dict]) -> float:
    """Duration of ``span`` minus the part of it its child spans cover."""
    clipped = [
        (max(c["start"], span["start"]), min(c["end"], span["end"]))
        for c in children
        if c["end"] > span["start"] and c["start"] < span["end"]
    ]
    return span["end"] - span["start"] - _covered(clipped)


def overlap_time(spans: list[dict]) -> float:
    """Time during which spans on at least two threads are open at once."""
    per_thread: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        per_thread.setdefault(s["thread"], []).append((s["start"], s["end"]))
    events = []
    for intervals in per_thread.values():
        reach = float("-inf")
        for start, end in sorted(intervals):
            start = max(start, reach)
            if end > start:
                events += [(start, 1), (end, -1)]
                reach = end
    events.sort()
    open_threads, since, total = 0, 0.0, 0.0
    for moment, step in events:
        if open_threads >= 2:
            total += moment - since
        open_threads += step
        since = moment
    return total


TIMED = {
    "data.load_images_s": "data.load_images",
    "data.consolidate_s": "data.consolidate",
    "data.load_pairs_s": "data.load_pairs",
    "data.covariates_s": "data.covariates",
    "metrics.optimize_threshold_s": "metrics.optimize_threshold",
    "metrics.group_confusion_s": "metrics.group_confusion",
    "logit.build_design_s": "logit.build_design",
    "logit.fit_logit_s": "logit.fit_logit",
    "logit.marginal_effects_s": "logit.marginal_effects",
    "anova.anova_distances_s": "anova.anova_distances",
    "diagnostics.simulate_residuals_s": "diagnostics.simulate_residuals",
    "charts.svg_s": "charts.svg",
    "util.canonical_json_s": "util.canonical_json",
    "planner.select_id_pool_s": "planner.select_id_pool",
    "planner.assign_styles_s": "planner.assign_styles",
    "planner.plan_diversity_report_s": "planner.plan_diversity_report",
    "planner.plan_to_jsonl_s": "planner.plan_to_jsonl",
}

SELF_TIMED = {
    "metrics.fairness_report_self_s": "metrics.fairness_report",
    "logit.bootstrap_self_s": "logit.bootstrap",
    "report.run_analysis_self_s": "report.run_analysis",
    "cli.self_s": ROOT,
}


def _op_figures(spans: list[dict]) -> dict[str, float]:
    """Layer figures of one operation from its spans."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out: dict[str, float] = {}
    for metric, name in TIMED.items():
        out[metric] = sum(s["end"] - s["start"] for s in spans if s["name"] == name)
    for metric, name in SELF_TIMED.items():
        out[metric] = sum(
            self_time(s, children.get(s["span_id"], [])) for s in spans if s["name"] == name
        )
    root = next(s for s in spans if s["name"] == ROOT)
    pool = [s for s in spans if s["thread"] != root["thread"]]
    out["report.pool_overlap_s"] = overlap_time(pool)

    fits = [s for s in spans if s["name"] == "logit.fit_logit" and "converged" in s["counts"]]
    boots = [s["counts"] for s in spans if s["name"] == "logit.bootstrap" and "used" in s["counts"]]
    out["data.rows"] = sum(s["counts"].get("rows", 0) for s in spans)
    out["metrics.group_confusion_calls"] = sum(s["name"] == "metrics.group_confusion" for s in spans)
    out["logit.fit_logit_calls"] = sum(s["name"] == "logit.fit_logit" for s in spans)
    out["logit.irls_iterations"] = sum(s["counts"]["iterations"] for s in fits)
    out["logit.fits_not_converged"] = sum(not s["counts"]["converged"] for s in fits)
    out["logit.bootstrap_used"] = sum(b["used"] for b in boots)
    out["logit.bootstrap_requested"] = sum(b["requested"] for b in boots)
    return out


#: Figures that count work rather than time it: averaged over every traced
#: operation, failed ones included, so a count that is nonzero on one input
#: in a rotation still shows.
COUNTS = (
    "data.rows",
    "metrics.group_confusion_calls",
    "logit.fit_logit_calls",
    "logit.irls_iterations",
    "logit.fits_not_converged",
)


def _per_input(values: dict[str, list[float]]) -> float:
    """Mean over inputs of each input's median."""
    return statistics.fmean(statistics.median(v) for v in values.values()) if values else 0.0


def layer_metrics(spans: list[dict], timed: list[dict], alloc: list[dict]) -> dict[str, float]:
    """Per-layer figures from the spans of the ``timed`` and ``alloc``
    operation records (each with ``id``, ``key`` and ``exit``).

    Times are per-input medians over the successful timed operations,
    averaged over inputs; counts are means over all timed operations, failed
    ones included; the bootstrap ratio is resamples used over resamples
    requested in all of them; allocation peaks are per-input medians of each
    successful alloc operation's largest peak, averaged over inputs.
    """
    by_op: dict[int, list[dict]] = {}
    for s in spans:
        by_op.setdefault(s["op"], []).append(s)
    figures = {r["id"]: _op_figures(by_op[r["id"]]) for r in timed}
    out: dict[str, float] = {}
    for name in list(TIMED) + list(SELF_TIMED) + ["report.pool_overlap_s"]:
        per_key: dict[str, list[float]] = {}
        for r in timed:
            if r["exit"] == 0:
                per_key.setdefault(r["key"], []).append(figures[r["id"]][name])
        out[name] = _per_input(per_key)
    for name in COUNTS:
        out[name] = statistics.fmean(f[name] for f in figures.values()) if figures else 0.0
    requested = sum(f["logit.bootstrap_requested"] for f in figures.values())
    used = sum(f["logit.bootstrap_used"] for f in figures.values())
    out["logit.bootstrap_used_ratio"] = used / requested if requested else 0.0
    for metric in sorted(set(ALLOC_SPANS.values())):
        per_key = {}
        for r in alloc:
            sizes = [
                s["counts"]["alloc_peak_mb"]
                for s in by_op[r["id"]]
                if ALLOC_SPANS.get(s["name"]) == metric and "alloc_peak_mb" in s["counts"]
            ]
            if r["exit"] == 0 and sizes:
                per_key.setdefault(r["key"], []).append(max(sizes))
        out[metric] = _per_input(per_key)
    return out


def span_records(tracer: Tracer) -> list[dict]:
    return [asdict(s) for s in tracer.spans]
