"""
Harness-side tracing of srt: every public function of the package modules is
rebound, at every name that refers to it, to a wrapper that records a span
(id, parent id, name, start, end) in memory. Nothing inside srt changes; the
spans are written out when the traced pass ends.

A layer's self time is its span duration minus the time covered by its child
spans. `valuation.vp` runs about 10^5 times per few verdicts, so it gets no
span: a separate pass only counts its calls, and that pass reports its own
overhead.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import itertools
import json
import sys
import time

import srt.localfield
import srt.series
import srt.valuation

# the package modules, which are also the layers, in dependency order
LAYERS = ["valuation", "localfield", "series", "torsor", "graph", "ramification",
          "groups", "pipeline", "cli"]

# class methods that carry the arithmetic; operator pairs share one span name
METHODS = {
    (srt.localfield.LocalFieldElement, "__add__"): "localfield.add",
    (srt.localfield.LocalFieldElement, "__radd__"): "localfield.add",
    (srt.localfield.LocalFieldElement, "__sub__"): "localfield.sub",
    (srt.localfield.LocalFieldElement, "__rsub__"): "localfield.sub",
    (srt.localfield.LocalFieldElement, "__neg__"): "localfield.neg",
    (srt.localfield.LocalFieldElement, "__mul__"): "localfield.mul",
    (srt.localfield.LocalFieldElement, "__rmul__"): "localfield.mul",
    (srt.localfield.LocalFieldElement, "__pow__"): "localfield.pow",
    (srt.localfield.LocalFieldElement, "__truediv__"): "localfield.div",
    (srt.localfield.LocalFieldElement, "__rtruediv__"): "localfield.div",
    (srt.localfield.LocalFieldElement, "inverse"): "localfield.inverse",
    (srt.localfield.LocalFieldElement, "truncate"): "localfield.truncate",
    (srt.series.TruncatedSeries, "__mul__"): "series.mul",
    (srt.series.TruncatedSeries, "evaluate"): "series.evaluate",
}


def _rebind(original, replacement, undo):
    """Point every name in srt and its submodules that is bound to `original`
    at `replacement` (the harness reaches srt only through these modules)."""
    modules = [m for name, m in sys.modules.items() if name == "srt" or name.startswith("srt.")]
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def _traced_functions():
    """(span name, function) for every public function defined in a layer
    module, except valuation, whose helpers run inside every canonicalization
    and are counted instead."""
    out = []
    for layer in LAYERS[1:]:
        mod = sys.modules[f"srt.{layer}"]
        for attr, value in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == mod.__name__
            ):
                out.append((f"{layer}.{attr}", value))
    return out


def _terms(x):
    if isinstance(x, srt.localfield.LocalFieldElement):
        return len(x.terms)
    return 0 if x == 0 else 1


def _count_mul(counters, args, kwargs, result, dur):
    counters["localfield.mul.term_products"] += _terms(args[0]) * _terms(args[1])


def _count_power_test(counters, args, kwargs, result, dur):
    counters["localfield.is_pth_power.attempts"] += 1
    counters["localfield.is_pth_power.decided"] += result.kind in ("yes", "no")


def _count_bfs(counters, args, kwargs, result, dur):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "criterion")
    if mode == "bfs":
        counters["groups.bfs.elements"] += result.order or 0
        counters["groups.bfs.ns"] += dur


ANNOTATE = {
    "localfield.mul": _count_mul,
    "localfield.is_pth_power": _count_power_test,
    "groups.generation_check": _count_bfs,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start ns, end ns)
        self.stack = [0]
        self.ids = itertools.count(1)
        self.counters = collections.Counter()

    def wrap(self, name, fn):
        spans, stack, ids, counters = self.spans, self.stack, self.ids, self.counters
        annotate = ANNOTATE.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, stack[-1], name, start, end))
            if annotate is not None:
                annotate(counters, args, kwargs, result, end - start)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        undo = []
        try:
            for name, fn in _traced_functions():
                _rebind(fn, self.wrap(name, fn), undo)
            for (cls, attr), name in METHODS.items():
                original = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(name, original))
                undo.append((cls, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def self_times(self):
        """{span name: (calls, self ns)}."""
        child_ns = collections.Counter()
        for sid, parent, name, start, end in self.spans:
            child_ns[parent] += end - start
        out = collections.defaultdict(lambda: [0, 0])
        for sid, parent, name, start, end in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start - child_ns[sid]
        return out

    def write(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")


@contextlib.contextmanager
def counting_vp():
    """Count calls of valuation.vp at every binding site."""
    calls = [0]
    original = srt.valuation.vp

    @functools.wraps(original)
    def counted(x, p):
        calls[0] += 1
        return original(x, p)

    undo = []
    try:
        _rebind(original, counted, undo)
        yield calls
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# per-layer metrics and their units; bench/README.md says which end-to-end
# metric and workload each one should move
PER_LAYER = {
    "localfield.mul.calls": "count",
    "localfield.mul.self_ms": "ms",
    "localfield.mul.term_products": "count",
    "localfield.add.self_ms": "ms",
    "localfield.inverse.self_ms": "ms",
    "localfield.nth_root.self_ms": "ms",
    "localfield.is_pth_power.self_ms": "ms",
    "localfield.is_pth_power.decided_ratio": "ratio",
    "series.maclaurin_g.self_ms": "ms",
    "series.general_binomial.calls": "count",
    "series.taylor_factors.self_ms": "ms",
    "series.evaluate.self_ms": "ms",
    "torsor.splitting_obstruction.self_ms": "ms",
    "torsor.tail_center.self_ms": "ms",
    "groups.generation_check.self_ms": "ms",
    "groups.bfs.elements_per_s": "1/s",
    "groups.element_order.calls": "count",
    "graph.enumerate_tail_configs.self_ms": "ms",
    "graph.propagate_differents.self_ms": "ms",
    "ramification.herbrand.self_ms": "ms",
    "cli.dispatch.self_ms": "ms",
    "pipeline.run_wild_monodromy.self_ms": "ms",
    "valuation.vp.calls": "count",
    **{f"{layer}.self_pct": "%" for layer in LAYERS[1:]},
    "unspanned.self_pct": "%",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.vp_count_ops_per_s": "1/s",
}


def per_layer_metrics(tracer, ops, traced_s, untraced_s, vp_calls, vp_s):
    """Values of every PER_LAYER metric for one traced workload run.

    Counts and times are totals over the traced pass; `<layer>.self_pct` is the
    layer's share of the traced op time, and `unspanned.self_pct` the share
    outside every span (harness glue and srt constructors it calls)."""
    stats = tracer.self_times()
    counters = tracer.counters
    values = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls" and base in stats:
            values[name] = stats[base][0]
        elif kind == "self_ms" and base in stats:
            values[name] = stats[base][1] / 1e6
        elif kind in ("calls", "self_ms"):
            values[name] = 0
    values["localfield.mul.term_products"] = counters["localfield.mul.term_products"]
    attempts = counters["localfield.is_pth_power.attempts"]
    values["localfield.is_pth_power.decided_ratio"] = (
        counters["localfield.is_pth_power.decided"] / attempts if attempts else 0
    )
    bfs_ns = counters["groups.bfs.ns"]
    values["groups.bfs.elements_per_s"] = (
        counters["groups.bfs.elements"] / (bfs_ns / 1e9) if bfs_ns else 0
    )
    values["valuation.vp.calls"] = vp_calls
    layer_ns = collections.Counter()
    for name, (calls, self_ns) in stats.items():
        layer_ns[name.split(".")[0]] += self_ns
    traced_ns = traced_s * 1e9
    for layer in LAYERS[1:]:
        values[f"{layer}.self_pct"] = 100 * layer_ns[layer] / traced_ns
    values["unspanned.self_pct"] = 100 * (traced_ns - sum(layer_ns.values())) / traced_ns
    values["trace.untraced_ops_per_s"] = ops / untraced_s
    values["trace.traced_ops_per_s"] = ops / traced_s
    values["trace.vp_count_ops_per_s"] = ops / vp_s
    return {name: [values[name], unit] for name, unit in PER_LAYER.items()}
