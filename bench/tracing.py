"""Per-layer tracing, installed from the benchmark's own code.

Each public function of the layers is replaced by a wrapper at every name a
caller looks it up through (modules bind names at import time, so
`ineqif.distributions.integrate` and `ineqif.influence.integrate` each get
their own wrapper). A wrapper records a span (name, start, end, parent span,
op index) in memory; self time is a span's duration minus the time its
child spans cover. Counts are taken at the same boundaries.
"""
from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (metric name, unit, better)
PER_LAYER = (
    ("numeric.integrate.calls", "count", "lower"),
    ("numeric.integrate.panels", "count", "lower"),
    ("numeric.integrate.self_ms", "ms", "lower"),
    ("numeric.derivative_at_zero_plus.calls", "count", "lower"),
    ("numeric.derivative_at_zero_plus.self_ms", "ms", "lower"),
    ("numeric.bisect_nondecreasing.calls", "count", "lower"),
    ("numeric.bisect_nondecreasing.f_evals", "count", "lower"),
    ("numeric.bisect_nondecreasing.self_ms", "ms", "lower"),
    ("distributions.Contaminated.quantile.calls", "count", "lower"),
    ("distributions.Contaminated.quantile.self_ms", "ms", "lower"),
    ("distributions.expect.calls", "count", "lower"),
    ("distributions.expect.hit_ratio", "ratio", "higher"),
    ("distributions.expect.self_ms", "ms", "lower"),
    ("distributions.partial_mean.calls", "count", "lower"),
    ("distributions.partial_mean.self_ms", "ms", "lower"),
    ("distributions.mid_cdf_array.self_ms", "ms", "lower"),
    ("measures.evaluate.calls", "count", "lower"),
    ("measures.evaluate.self_ms", "ms", "lower"),
    ("measures.gini.self_ms", "ms", "lower"),
    ("measures.qsr.self_ms", "ms", "lower"),
    ("influence.gateaux_if.calls", "count", "lower"),
    ("influence.gateaux_if.self_ms", "ms", "lower"),
    ("influence.if_special.self_ms", "ms", "lower"),
    ("influence.asymptotic_variance.calls", "count", "lower"),
    ("influence.asymptotic_variance.self_ms", "ms", "lower"),
    ("estimation.draw_sample.rows", "count", "lower"),
    ("estimation.draw_sample.self_ms", "ms", "lower"),
    ("estimation.mc_variance_study.self_ms", "ms", "lower"),
    ("cli.ingest_csv.rows", "count", "lower"),
    ("cli.ingest_csv.self_ms", "ms", "lower"),
    ("setup.import.numpy_ms", "ms", "lower"),
    ("setup.import.scipy_ms", "ms", "lower"),
    ("setup.import.ineqif_ms", "ms", "lower"),
)

_GK15_NODES = 15


class Tracer:
    """Span stack, in-memory span list and per-name aggregates."""

    def __init__(self):
        self.stack = []   # open spans: [name, start, child_seconds, span_index]
        self.spans = []   # closed spans: (name, start, end, parent_index, op)
        self.op = -1
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans.clear()

    def span(self, name, fn, before=None, after=None):
        """Wrap fn; before(args, kwargs) may replace arguments, after(result)
        may record counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = tracer.stack[-1][3] if tracer.stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)  # reserved; filled on exit
            frame = [name, time.perf_counter(), 0.0, index]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                duration = end - frame[1]
                tracer.self_s[name] += duration - frame[2]
                tracer.calls[name] += 1
                if tracer.stack:
                    tracer.stack[-1][2] += duration
                tracer.spans[index] = (name, frame[1], end, parent, tracer.op)
            if after is not None:
                after(result)
            return result

        return wrapper

    def dump(self, path: Path):
        """Write the spans of the last traced pass as gzip JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def install(tracer: Tracer, ineqif) -> None:
    """Replace the layer functions of the imported ineqif package by spans."""
    numeric, dist = ineqif.numeric, ineqif.distributions
    measures, influence = ineqif.measures, ineqif.influence
    estimation, cli = ineqif.estimation, ineqif.cli

    def count_nodes(args, kwargs):
        g = args[0]

        def counted(x):
            out = g(x)
            tracer.counts["integrate.nodes"] += int(np.size(x))
            return out

        return (counted,) + tuple(args[1:]), kwargs

    def count_f_evals(args, kwargs):
        f = args[0]

        def counted(x):
            tracer.counts["bisect.f_evals"] += 1
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs

    def patch(module, attr, name, **hooks):
        setattr(module, attr, tracer.span(name, getattr(module, attr), **hooks))

    for mod in (numeric, dist, influence):
        patch(mod, "integrate", "numeric.integrate", before=count_nodes)
    for mod in (numeric, influence):
        patch(mod, "derivative_at_zero_plus", "numeric.derivative_at_zero_plus")
    for mod in (numeric, dist):
        patch(mod, "bisect_nondecreasing", "numeric.bisect_nondecreasing",
              before=count_f_evals)
    patch(dist.Contaminated, "quantile", "distributions.Contaminated.quantile")
    patch(dist.Empirical, "mid_cdf_array", "distributions.mid_cdf_array")
    for cls in vars(dist).values():
        if isinstance(cls, type) and issubclass(cls, dist.Distribution):
            if "partial_mean" in vars(cls):
                patch(cls, "partial_mean", "distributions.partial_mean")
    _install_expect(tracer, dist)

    patch(measures.MeasureFunctional, "evaluate", "measures.evaluate")
    patch(measures, "gini", "measures.gini")
    patch(measures, "qsr", "measures.qsr")
    patch(influence, "gateaux_if", "influence.gateaux_if")
    patch(influence, "if_special", "influence.if_special")
    for mod in (influence, estimation):
        patch(mod, "asymptotic_variance", "influence.asymptotic_variance")

    def count_rows(args, kwargs):
        tracer.counts["draw_sample.rows"] += int(args[1])
        return args, kwargs

    patch(estimation, "draw_sample", "estimation.draw_sample", before=count_rows)
    patch(estimation, "mc_variance_study", "estimation.mc_variance_study")
    patch(cli, "ingest_csv", "cli.ingest_csv",
          after=lambda s: tracer.counts.update({"ingest_csv.rows": s.n}))


def _install_expect(tracer: Tracer, dist) -> None:
    """expect spans; a call on a quadrature-backed model is a hit when it
    reaches no integrate (the moment cache answered)."""
    quadrature_impl = dist.Distribution._expect_impl

    for cls in (dist.Distribution, dist.Contaminated):
        inner = tracer.span("distributions.expect", vars(cls)["expect"])

        def expect(self, *args, _inner=inner, **kwargs):
            if type(self)._expect_impl is not quadrature_impl:
                return _inner(self, *args, **kwargs)
            before = tracer.calls["numeric.integrate"]
            out = _inner(self, *args, **kwargs)
            tracer.counts["expect.quadrature_calls"] += 1
            if tracer.calls["numeric.integrate"] == before:
                tracer.counts["expect.hits"] += 1
            return out

        cls.expect = expect


def pass_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass over the op list."""
    out = {}
    for name, unit, _ in PER_LAYER:
        if name.startswith("setup."):
            continue
        base, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = tracer.calls[base]
        elif what.endswith("self_ms"):
            out[name] = tracer.self_s[base] * 1e3
        elif what == "panels":
            out[name] = tracer.counts["integrate.nodes"] / _GK15_NODES
        elif what == "f_evals":
            out[name] = tracer.counts["bisect.f_evals"]
        elif what == "hit_ratio":
            total = tracer.counts["expect.quadrature_calls"]
            out[name] = tracer.counts["expect.hits"] / total if total else 0.0
        elif name == "estimation.draw_sample.rows":
            out[name] = tracer.counts["draw_sample.rows"]
        elif name == "cli.ingest_csv.rows":
            out[name] = tracer.counts["ingest_csv.rows"]
        else:
            raise KeyError(name)
    return out
