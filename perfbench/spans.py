"""Spans for the traced run, and the per-layer metrics computed from them.

Spans are recorded only here, in the benchmark, around calls into each
module's public functions; nothing inside chromaplane is instrumented.
They are kept in memory and written out when the run ends.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# Every per-layer metric the traced run reports, with its unit.  A layer
# that the workload never calls reports 0.
LAYER_METRICS = {
    "cli.main.s": "s",
    "cli.self.s": "s",
    "cli.output_bytes": "bytes",
    "annulus.lower_bound_config.s": "s",
    "annulus.threshold_bisect.s": "s",
    "annulus.radial_best.s": "s",
    "annulus.radial_max_b_numeric.s": "s",
    "distgraph.build_graph.s": "s",
    "distgraph.build_graph.calls": "count",
    "distgraph.points": "count",
    "distgraph.edges": "count",
    "distgraph.build_graph.peak_mb": "MB",
    "distgraph.export_dimacs.s": "s",
    "solver.greedy_clique.s": "s",
    "solver.clique_size": "count",
    "solver.k_colorable.s": "s",
    "solver.search.s": "s",
    "solver.search_nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.budget_exhausted": "count",
    "solver.find_yield": "ratio",
    "solver.export_cnf.s": "s",
    "solver.export_lp.s": "s",
    "solver.export.bytes": "bytes",
    "solver.export.peak_mb": "MB",
    "hexcolor.hex_b_max.s": "s",
    "hexcolor.hex_b_max.calls": "count",
    "hexcolor.pareto_table.s": "s",
    "hexcolor.min_colors_curve.s": "s",
    "hexcolor.min_colors_curve.points": "count",
    "hexcolor.verify_scheme_sampled.s": "s",
    "hexcolor.verify_samples_per_s": "1/s",
    "eightcol.maximize_b.s": "s",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans: name, start, end, parent span and op id, plus counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counters):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._open[-1] if self._open else None, **counters}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: total duration minus the part its child spans cover.

    Children of one span never overlap (the run is single-threaded), so the
    covered part is the sum of their durations.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += _dur(s)
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += _dur(s) - child[s["id"]]
    return dict(out)


def layer_metrics(spans, cli_op_s, cli_output_bytes, memory_peaks, import_s,
                  traced_wall_s, untraced_wall_s) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    cli_op_s maps each CLI op id to its untraced time in reference
    seconds; its replayed layer calls are the top-level spans under that
    op, scaled by the op span's scale, so cli.self.s is an estimate:
    untraced op time minus traced layer time.  A solve's greedy_clique
    span is left out of that sum, because k_colorable repeats the clique
    search inside its own span.  Every other layer time is raw seconds.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s["name"]] += _dur(s)
        calls[s["name"]] += 1

    def spans_named(name):
        return [s for s in spans if s["name"] == name]

    op_span = {s["op"]: s["id"] for s in spans_named("op")}
    replayed = defaultdict(float)
    for s in spans:
        if s["parent"] == op_span.get(s["op"]) and s["name"] != "solver.greedy_clique":
            replayed[s["op"]] += _dur(s) * spans[s["parent"]]["scale"]
    solves = spans_named("solver.k_colorable")
    cliques = {s["op"]: s["clique_size"] for s in spans_named("solver.greedy_clique")}
    found = [s for s in solves if s.get("status") == "colorable"]
    nodes = sum(s["nodes"] for s in solves)
    search_s = total["solver.k_colorable"] - total["solver.greedy_clique"]
    found_nodes = sum(s["nodes"] for s in found)
    builds = spans_named("distgraph.build_graph")
    exports = spans_named("solver.export_cnf") + spans_named("solver.export_lp")
    samples = sum(s["samples"] for s in spans_named("hexcolor.verify_scheme_sampled"))
    m = {
        "cli.main.s": sum(cli_op_s.values()),
        "cli.self.s": sum(t - replayed[op] for op, t in cli_op_s.items()),
        "cli.output_bytes": cli_output_bytes,
        "distgraph.build_graph.calls": len(builds),
        "distgraph.points": sum(s["points"] for s in builds),
        "distgraph.edges": sum(s["edges"] for s in builds),
        "distgraph.build_graph.peak_mb": memory_peaks.get("distgraph.build_graph", 0.0),
        "solver.clique_size": sum(cliques.values()),
        "solver.search.s": search_s,
        "solver.search_nodes": nodes,
        "solver.nodes_per_s": nodes / search_s if search_s > 0 else 0.0,
        "solver.budget_exhausted": sum(s.get("budget_exhausted", 0) for s in solves),
        "solver.find_yield": (sum(s["vertices"] - cliques[s["op"]] for s in found) / found_nodes
                              if found_nodes else 0.0),
        "solver.export.bytes": sum(s["bytes"] for s in exports),
        "solver.export.peak_mb": max(memory_peaks.get("solver.export_cnf", 0.0),
                                     memory_peaks.get("solver.export_lp", 0.0)),
        "hexcolor.hex_b_max.calls": calls["hexcolor.hex_b_max"],
        "hexcolor.min_colors_curve.points": sum(
            s["points"] for s in spans_named("hexcolor.min_colors_curve")),
        "hexcolor.verify_samples_per_s": (samples / total["hexcolor.verify_scheme_sampled"]
                                          if samples else 0.0),
        "setup.import_s": import_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    for name in LAYER_METRICS:
        if name not in m and name.endswith(".s"):
            m[name] = total[name[:-2]]
    return {name: m[name] for name in LAYER_METRICS}
