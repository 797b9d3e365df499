"""Spans around the benchmark's calls into the workbench, and what they add up to.

A traced pass wraps every instance, and every public call made inside it,
in a span: name, start, end, parent span and instance id.  Spans are kept
in memory and handed back at the end of the pass.  An untraced pass uses
`NullTracer`, which calls straight through.

Per layer, busy time is the union of its spans' intervals and self time is
each span's duration minus the part its child spans cover.  The spans sit
around public calls only, so time a call spends in another layer (the
weighted lower bound inside `solve_graph`, say) counts to the caller's layer.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter

# Span name -> (layer, busy-time metric).  The names are the public calls.
# `forced_queries` is the adversary walk although it lives in graphsolver;
# the "generators" layer is input generation, the minedge graph included.
CALLS = {
    "graphsolver.solve_graph": ("graphsolver", "graphsolver.busy_s"),
    "graphsolver.forced_queries": ("adversary", "adversary.forced_busy_s"),
    "adversary.verify_treelemma_all_orders": ("adversary", "adversary.allorders_busy_s"),
    "weighted.solve_weighted": ("weighted", "weighted.busy_s"),
    "bounds.dectree_bound": ("bounds", "bounds.dectree_busy_s"),
    "bounds.certify_lower_bound": ("bounds", "bounds.certify_busy_s"),
    "constructions.verify_querier": ("constructions", "constructions.verify_busy_s"),
    "nondet.cert": ("nondet", "nondet.cert_busy_s"),
    "nondet.path_cert": ("nondet", "nondet.path_cert_busy_s"),
    "nondet.nondet_query_set": ("nondet", "nondet.query_set_busy_s"),
    "generators.path_graph": ("generators", "generators.busy_s"),
    "generators.free_trees": ("generators", "generators.busy_s"),
    "generators.random_tree": ("generators", "generators.busy_s"),
    "constructions.build_minedge_graph": ("generators", "generators.busy_s"),
    "instance": ("harness", "harness.busy_s"),
}
LAYERS = ("graphsolver", "weighted", "bounds", "adversary", "constructions", "nondet", "generators", "harness")
BUSY_METRICS = tuple(dict.fromkeys(metric for _, metric in CALLS.values()))


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def instance(self, iid: int):
        return nullcontext()


class Tracer:
    """Records one span per instance and per public call, in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._instance: int | None = None

    @contextmanager
    def _span(self, name: str):
        if name not in CALLS:
            raise KeyError(f"unmapped span name {name!r}")
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = {"id": sid, "name": name, "parent": parent, "instance": self._instance, "start": 0.0, "end": 0.0}
        self.spans.append(span)
        self._stack.append(sid)
        span["start"] = perf_counter()
        try:
            yield
        finally:
            span["end"] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args):
        with self._span(name):
            return fn(*args)

    @contextmanager
    def instance(self, iid: int):
        self._instance = iid
        try:
            with self._span("instance"):
                yield
        finally:
            self._instance = None


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_times(spans: list[dict]) -> dict[str, float]:
    """Busy time per call metric and per layer, and self time per layer, in seconds."""
    by_metric: dict[str, list] = {m: [] for m in BUSY_METRICS}
    by_layer: dict[str, list] = {layer: [] for layer in LAYERS}
    children: dict[int, list] = {}
    for s in spans:
        layer, metric = CALLS[s["name"]]
        by_metric[metric].append((s["start"], s["end"]))
        by_layer[layer].append((s["start"], s["end"]))
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {m: _union_length(iv) for m, iv in by_metric.items()}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = _union_length(by_layer[layer])
        out[f"{layer}.self_s"] = 0.0
    for s in spans:
        layer, _ = CALLS[s["name"]]
        covered = _union_length(children.get(s["id"], ()))
        out[f"{layer}.self_s"] += (s["end"] - s["start"]) - covered
    return out
