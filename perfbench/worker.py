"""One workload in a fresh interpreter: set-up, timed passes, traced pass.

Started by run.py, never by hand.  Prints `ready <import_s>` once
chromaplane is imported and the inputs exist, then (unless --setup-only)
one JSON line with the raw per-op records, which run.py turns into metrics.
"""
import time

_t0 = time.perf_counter()
import chromaplane  # noqa: E402  (the import is what set-up times)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402

import calib  # noqa: E402
from chromaplane import annulus, distgraph  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Answer, CliOp, build_ops, load_expected  # noqa: E402

MB = 1024 * 1024
# Exports of larger graphs are not run under tracemalloc: tracing the 1.2M
# live lines of the case 1 LP export alone takes about a minute.
TRACEMALLOC_MAX_EDGES = 50_000
# Within a pass an op runs again until it has run REP_TARGET_S in total, at
# most MAX_REPS times, so short ops get a median over several samples.
REP_TARGET_S = 1.0
MAX_REPS = 9


def run_op(op, expected):
    """Time one op as a whole (tracing off), then check its output.

    `raw_s` is the op's wall time less the calibration samples taken while
    it ran; `ticks` are those samples.
    """
    with calib.Ticks() as ticks:
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # noqa: BLE001  (a failed op is counted, not fatal)
            result = exc
        t1 = time.perf_counter()
    ans = (Answer(None, f"error_{type(result).__name__}") if isinstance(result, Exception)
           else op.check(result, expected))
    return {"start": t0, "end": t1, "raw_s": t1 - t0 - ticks.spent,
            "ticks": ticks.samples, "reason": ans.reason, "value": ans.value,
            "counters": ans.counters}


def timed_pass(ops, expected):
    """One pass over the op list, tracing off; records carry their op index.

    A calibration block follows every op run.  Each record carries the
    scale to reference speed from its in-op samples and the blocks on
    either side of it.
    """
    records = []
    before = calib.block()
    for i, op in enumerate(ops):
        spent, reps = 0.0, 0
        while reps == 0 or (spent < REP_TARGET_S and reps < MAX_REPS):
            rec = run_op(op, expected)
            after = calib.block()
            rec["op"], rec["rep"] = i, reps
            rec["scale"] = calib.scale(before + rec.pop("ticks") + after, op.calib)
            records.append(rec)
            spent += rec["raw_s"]
            reps += 1
            before = after
    return records


def latency(r, normalized=True) -> float:
    """An op run's latency, in reference seconds unless normalized is False.

    A budget cut lasts the budget, which is wall-clock time whatever the
    host's speed, so it is never scaled.
    """
    if r["reason"] == "budget":
        return r["end"] - r["start"]
    return r["raw_s"] * r["scale"] if normalized else r["raw_s"]


def op_medians(passes, normalized=True) -> list[float]:
    """Median latency of each op over all its runs in all passes."""
    lat = defaultdict(list)
    for records in passes:
        for r in records:
            lat[r["op"]].append(latency(r, normalized))
    return [statistics.median(lat[i]) for i in sorted(lat)]


def traced_pass(ops, tracer):
    """Replay each op inside spans.  Each op span carries the op's scale to
    reference seconds and the time its in-op calibration samples took, so
    that it can be compared with the untraced pass (calib.py)."""
    answers = []
    before = calib.block()
    for i, op in enumerate(ops):
        tracer.op = i
        with calib.Ticks() as ticks, tracer.span("op", command=op.name) as sp:
            try:
                ans = op.replay(tracer)
            except Exception as exc:  # noqa: BLE001
                ans = Answer(None, f"error_{type(exc).__name__}")
        after = calib.block()
        sp["ticks_s"] = ticks.spent
        sp["scale"] = (1.0 if ans.reason == "budget"
                       else calib.scale(before + ticks.samples + after, op.calib))
        before = after
        answers.append({"value": ans.value, "reason": ans.reason})
    return answers


def _peak_mb(fn):
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = fn()
    return result, (tracemalloc.get_traced_memory()[1] - base) / MB


def memory_pass(ops):
    """tracemalloc peaks of each distinct graph build and of the exporters.

    Kept apart from the traced pass so that tracemalloc's cost stays out
    of every span.
    """
    peaks, graphs = {}, {}
    tracemalloc.start()
    try:
        for op in ops:
            key = op.config_args() if isinstance(op, CliOp) else None
            if key is None:
                continue
            if key not in graphs:
                case, b, eps, n = key
                config = annulus.lower_bound_config(case, b, eps, n)
                graphs[key], mb = _peak_mb(lambda: distgraph.build_graph(config, b, eps))
                peaks["distgraph.build_graph"] = max(mb, peaks.get("distgraph.build_graph", 0.0))
            if op.argv[0] == "export" and len(graphs[key].edges) <= TRACEMALLOC_MAX_EDGES:
                name, call = op.exporter(graphs[key])
                _, mb = _peak_mb(call)
                peaks[name] = max(mb, peaks.get(name, 0.0))
    finally:
        tracemalloc.stop()
    return peaks


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--w", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ops = build_ops(args.workload, args.w, args.seed)
    expected = load_expected()
    print("ready", IMPORT_S, flush=True)
    if args.setup_only:
        return

    # Whole passes over the op list until the next one would overrun --seconds.
    start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(timed_pass(ops, expected))
        wall = time.perf_counter() - t0
        if time.perf_counter() + wall > start + args.seconds:
            break
    result = {"passes": passes, "ops": [op.name for op in ops], "op_s": op_medians(passes),
              "op_raw_s": op_medians(passes, normalized=False),
              "scale": statistics.median(r["scale"] for p in passes for r in p),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    if args.trace:
        tracer = Tracer()
        answers = traced_pass(ops, tracer)
        op_spans = [s for s in tracer.spans if s["name"] == "op"]
        traced_wall = sum((s["end"] - s["start"] - s["ticks_s"]) * s["scale"] for s in op_spans)
        op_s = result["op_s"]
        untraced_wall = sum(op_s)
        cli_op_s = {i: op_s[i] for i, op in enumerate(ops) if isinstance(op, CliOp)}
        out_bytes = sum(r["counters"]["cli.output_bytes"] for r in passes[0]
                        if r["rep"] == 0 and r["op"] in cli_op_s)
        result.update(
            answers=answers, spans=tracer.spans, self_s=self_times(tracer.spans),
            layers=layer_metrics(tracer.spans, cli_op_s, out_bytes, memory_pass(ops),
                                 IMPORT_S, traced_wall, untraced_wall))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
