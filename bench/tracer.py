"""Span tracing from outside the program.

The tracer replaces public functions at the module (or class) attributes the
program looks up at call time with wrappers that record one span per call:
its name (`<layer>.<function>`), start, end, parent span, operation id, and
how far the call raised the process's peak resident memory.  Counters sit at
the same boundaries.  Spans stay in memory; the caller writes them out when
the run ends.  Uninstalling restores the original attributes, so untraced
operations run the program's own code and nothing else.
"""
from __future__ import annotations

import os
import resource
import time
from collections import Counter

import numpy as np

# Phase names in GenerationResult.timings -> per-layer metric names.
TIMING_METRICS = {
    "degrees": "sampling.degrees_s",
    "community_sizes": "sampling.community_sizes_s",
    "split": "assignment.split_s",
    "assignment": "assignment.place_s",
    "singletons": "generation.singletons_s",
    "community_edges": "generation.community_edges_s",
    "background_edges": "generation.background_edges_s",
    "assembly": "generation.assembly_s",
    "total": "generation.total_s",
}

# Span name -> metric that sums the span's durations within one operation.
SPAN_SECONDS = {
    "rewiring.rewire": "rewiring.busy_s",
    "cli.write_edges_file": "cli.write_edges_s",
    "cli.write_assignment_file": "cli.write_assign_s",
    "cli.write_report_file": "cli.write_report_s",
    "cli.read_edges_file": "cli.read_edges_s",
    "cli.read_assignment_file": "cli.read_assign_s",
    "structures.from_edge_lists": "structures.from_edge_lists_s",
    "metrics.ccdf_report": "metrics.ccdf_report_s",
    "metrics.two_section": "metrics.two_section_s",
    "metrics.graph_modularity": "metrics.graph_modularity_s",
    "metrics.hypergraph_modularity": "metrics.hypergraph_modularity_s",
    "metrics.type_histogram": "metrics.type_histogram_s",
}

# Span name -> metric that holds the span's rise in peak resident memory.
SPAN_RSS = {
    "generation.generate": "generation.rss_delta_mb",
    "rewiring.rewire": "rewiring.rss_delta_mb",
    "cli.write_edges_file": "cli.write_edges.rss_delta_mb",
    "cli.write_report_file": "cli.write_report.rss_delta_mb",
    "cli.read_edges_file": "cli.read_edges.rss_delta_mb",
}

# Metrics read from span values or counters; all repeat exactly for one seed.
COUNT_METRICS = (
    "assignment.communities", "generation.edges", "generation.volume",
    "rewiring.defects_in_repeat", "rewiring.defects_in_duplicate",
    "rewiring.attempts", "rewiring.checks", "rewiring.defects_left",
    "rewiring.fix_ratio", "cli.edges_bytes", "metrics.two_section_pairs",
    "metrics.hypergraph_modularity_calls",
)

LAYER_METRICS = (tuple(TIMING_METRICS.values()) + tuple(SPAN_SECONDS.values())
                 + tuple(SPAN_RSS.values()) + COUNT_METRICS)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def count_defects(hg) -> tuple[int, int]:
    """(edges with a repeated node, repeat-free edges equal to an earlier edge).

    Member slots are sorted within each edge, so a repeat sits next to its
    twin, and sorting the rows puts equal edges next to each other.
    """
    sizes = np.diff(hg.offsets)
    repeats = duplicates = 0
    for d in np.unique(sizes):
        idx = np.flatnonzero(sizes == d)
        rows = hg.members[hg.offsets[idx][:, None] + np.arange(d)]
        repeated = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        clean = rows[~repeated]
        clean = clean[np.lexsort(clean.T[::-1])]
        repeats += int(repeated.sum())
        duplicates += int((clean[1:] == clean[:-1]).all(axis=1).sum())
    return repeats, duplicates


class CountingRng:
    """Passes every call through to a Generator and counts `shuffle` calls;
    the repair loop shuffles once per attempt."""

    def __init__(self, rng):
        self._rng = rng
        self.shuffles = 0

    def shuffle(self, x, *args, **kwargs):
        self.shuffles += 1
        return self._rng.shuffle(x, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _generate_values(args, result):
    hg = result.hypergraph
    values = {metric: result.timings[phase] for phase, metric in TIMING_METRICS.items()}
    values.update({"generation.edges": hg.edge_count, "generation.volume": hg.volume,
                   "assignment.communities": result.assignment.community_count})
    return values


# Span name -> metrics read from the call's arguments and result.
SPAN_VALUES = {
    "generation.generate": _generate_values,
    "cli.write_edges_file": lambda args, result: {"cli.edges_bytes": os.path.getsize(args[0])},
    "metrics.two_section": lambda args, result: {"metrics.two_section_pairs": len(result.pair_u)},
    "metrics.hypergraph_modularity": lambda args, result: {"metrics.hypergraph_modularity_calls": 1},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.op = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        rec = dict(name=name, op=self.op, parent=self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rss0 = peak_rss_mb()
        rec["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            rec["rss_delta_mb"] = peak_rss_mb() - rss0
            self._stack.pop()
        if name in SPAN_VALUES:
            rec["values"] = SPAN_VALUES[name](args, result)
        return result

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)

    def wrap(self, owner, attr, name):
        """Record a span around every call of owner.attr."""
        fn = getattr(owner, attr)
        self._patch(owner, attr, lambda *a, **k: self.call(name, fn, *a, **k))

    def wrap_rewiring(self, rewiring):
        """Spans around `rewire`, with defects counted before the span starts,
        attempts counted on an RNG proxy, and `indisposition` calls counted."""
        rewire, indisposition = rewiring.rewire, rewiring.indisposition

        def traced_rewire(hg, rng, **kwargs):
            repeats, duplicates = count_defects(hg)
            self.counts[self.op, "rewiring.defects_in_repeat"] = repeats
            self.counts[self.op, "rewiring.defects_in_duplicate"] = duplicates
            proxy = CountingRng(rng)
            left = self.call("rewiring.rewire", rewire, hg, proxy, **kwargs)
            self.counts[self.op, "rewiring.attempts"] = proxy.shuffles
            self.counts[self.op, "rewiring.defects_left"] = left
            return left

        def counted_indisposition(*args, **kwargs):
            self.counts[self.op, "rewiring.checks"] += 1
            return indisposition(*args, **kwargs)

        self._patch(rewiring, "rewire", traced_rewire)
        self._patch(rewiring, "indisposition", counted_indisposition)

    def uninstall(self):
        while self._saved:
            setattr(*self._saved.pop())

    def layer_metrics(self, op: str) -> dict[str, float]:
        """Every per-layer metric for one operation, set-up spans included;
        0 for a layer the operation does not reach."""
        out = dict.fromkeys(LAYER_METRICS, 0)
        for rec in self.spans:
            if rec["op"] not in (op, "setup"):
                continue
            name = rec["name"]
            if name in SPAN_SECONDS:
                out[SPAN_SECONDS[name]] += rec["end"] - rec["start"]
            if name in SPAN_RSS:
                out[SPAN_RSS[name]] = max(out[SPAN_RSS[name]], rec["rss_delta_mb"])
            for metric, value in rec.get("values", {}).items():
                out[metric] += value
        for (rec_op, metric), value in self.counts.items():
            if rec_op in (op, "setup"):
                out[metric] = value
        if out["rewiring.attempts"]:
            defects_in = out["rewiring.defects_in_repeat"] + out["rewiring.defects_in_duplicate"]
            out["rewiring.fix_ratio"] = (defects_in - out["rewiring.defects_left"]) / out["rewiring.attempts"]
        return out
