"""chromaplane benchmark: one workload per call, run from the root of a checkout.

    python3 perfbench/run.py --workload find --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

--workload is one of find, refute, tables, export, or all (each in turn).
--seed is the run seed (the sampler seeds of the library cross-checks);
--w is the workload seed (solver seeds 10w .. 10w+9; default 0, the
baseline).  The workload runs in a fresh interpreter (worker.py) on this
checkout's src/, single-threaded, with CHROMA_THREADS unset and the BLAS
thread variables at 1, and pinned with run.py to one CPU.  Set-up is
timed over several fresh interpreters.

With --trace 0 the last stdout line is the end-to-end metrics as JSON;
with --trace 1 it is the per-layer metrics of a traced pass that follows
the timed passes.  Op times are in reference seconds: each raw time is
scaled by a calibration kernel timed around and during it (calib.py), so
that the shared host's drifting speed cancels; the report prints the raw
seconds beside them.  The lines before the JSON line are
the human report.  Everything the run recorded, including the machine
block and any spans, goes to perfbench/results/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import calib  # calib.py imports nothing from chromaplane
from spans import LAYER_METRICS  # spans.py imports nothing from chromaplane

HERE = Path(__file__).resolve().parent
WORKLOADS = ("find", "refute", "tables", "export")
SETUP_PROBES = 12  # set-up-only interpreters timed for setup_s
TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_max_s": "s",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def pinned_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("CHROMA_THREADS", None)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_block() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def start_worker(argv, env, root):
    """Start worker.py; return (process, set-up seconds, its import seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=env, cwd=root, text=True)
    line = proc.stdout.readline().split()
    setup = time.perf_counter() - t0
    if len(line) != 2 or line[0] != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup, float(line[1])


def finish(proc) -> str:
    """Wait for a worker and return its stdout; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker exceeded {TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def run_workload(workload, w, seed, seconds, trace, env, root) -> dict:
    argv = ["--workload", workload, "--w", str(w), "--seed", str(seed)]
    setups, raw_setups, imports = [], [], []
    before = calib.block()

    def probe():
        """One set-up-only interpreter, scaled by the calibration blocks on
        either side of it (run.py and its children share one CPU)."""
        nonlocal before
        proc, setup, imp = start_worker(argv + ["--setup-only"], env, root)
        finish(proc)
        after = calib.block()
        setups.append(setup * calib.scale(before + after, "mixed"))
        raw_setups.append(setup)
        imports.append(imp)
        before = after

    # Half the probes run before the worker and half after it, some 30 s
    # apart, so that setup_s does not hang on one spell of the host's speed.
    for _ in range(SETUP_PROBES // 2):
        probe()
    proc, setup, imp = start_worker(argv + ["--seconds", str(seconds), "--trace", str(trace)],
                                    env, root)
    raw = json.loads(finish(proc).strip().splitlines()[-1])
    imports.append(imp)
    before = calib.block()
    for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
        probe()
    raw["setup_s"], raw["setup_raw_s"], raw["import_s"] = setups, raw_setups, imports
    raw["worker_setup_s"] = setup
    return raw


def pin_to_one_cpu():
    """Keep run.py and every interpreter it starts on one CPU.

    The host's two vCPUs change speed independently, so the calibration
    blocks that run.py times between set-up probes describe a probe only
    if both ran on the same CPU.  The process's own affinity is all this
    touches.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def summarize(raw: dict) -> dict:
    """End-to-end metrics and failure accounting from a worker's raw records.

    Timings come from each op's median latency in reference seconds
    (raw["op_s"], see calib.py): wall_s is their sum, the time to solution
    for one pass over the fixed op list.  The raw seconds ride along.
    Failures count once per op per pass, whatever the op's repeat count.
    """
    op_s = raw["op_s"]
    reasons = Counter()
    attempted = 0
    for records in raw["passes"]:
        first = {}
        for r in records:
            if r["rep"] == 0 or first.get(r["op"]) is None:
                first[r["op"]] = r["reason"]
        attempted += len(first)
        reasons.update(reason for reason in first.values() if reason)
    # The traced replay must give the untraced run's answers, with the same verdicts.
    untraced = [r for r in raw["passes"][0] if r["rep"] == 0]
    for a, r in zip(raw.get("answers", []), untraced):
        if a["value"] != r["value"] or a["reason"] != r["reason"]:
            reasons["trace_mismatch"] += 1
    failed = sum(reasons.values())
    return {
        "metrics": {
            "setup_s": statistics.median(raw["setup_s"]),
            "wall_s": sum(op_s),
            "op_p50_s": statistics.median(op_s),
            "op_max_s": max(op_s),
            "peak_rss_mb": raw["peak_rss_mb"],
        },
        "raw": {"setup_s": statistics.median(raw["setup_raw_s"]),
                "wall_s": sum(raw["op_raw_s"]),
                "op_p50_s": statistics.median(raw["op_raw_s"]),
                "op_max_s": max(raw["op_raw_s"])},
        "scale": raw["scale"],
        "fail_ratio": failed / attempted,
        "fail_reasons": dict(reasons),
        "attempted": attempted,
        "failed": failed,
        # A budget cut is a failure but not a wrong answer; anything else is.
        "correct": all(r == "budget" for r in reasons.elements()),
        "ops_per_pass": len(op_s),
        "passes": len(raw["passes"]),
    }


def report(workload, args, summary, machine, load) -> list[str]:
    m = summary["metrics"]
    lines = [f"# workload={workload} w={args.w} seed={args.seed} passes={summary['passes']} "
             f"ops/pass={summary['ops_per_pass']} nproc={machine['nproc']} "
             f"load={load[0]:.2f}->{load[1]:.2f} host_scale={summary['scale']:.3f}"]
    for name, unit in END_TO_END.items():
        extra = f" (n={summary['ops_per_pass']} ops)" if name == "op_p50_s" else ""
        if name in summary["raw"]:
            extra += f" (raw {summary['raw'][name]:.6g} {unit})"
        lines.append(f"{workload} {name} {m[name]:.6g} {unit}{extra}")
        if name == "op_max_s":
            lines.append(f"{workload} fail_ratio {summary['fail_ratio']:.6g} ratio "
                         f"reasons={json.dumps(summary['fail_reasons'], sort_keys=True)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="run seed: sampler seeds")
    ap.add_argument("--w", type=int, default=0, help="workload seed: solver seeds 10w..10w+9")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chromaplane" / "__init__.py").is_file():
        print("perfbench: run from the root of a chromaplane checkout (no src/chromaplane)",
              file=sys.stderr)
        return 2
    env = pinned_env(root)
    pin_to_one_cpu()
    machine = machine_block()
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)

    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        load_before = os.getloadavg()
        try:
            raw = run_workload(workload, args.w, args.seed, args.seconds, args.trace, env, root)
        except (BenchError, json.JSONDecodeError) as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        load = (load_before[0], os.getloadavg()[0])
        summary = summarize(raw)
        metrics = summary["metrics"]
        if args.trace:
            metrics = raw["layers"]
            # the worker measured only its own import; use all the interpreters'.
            # Layer times are raw seconds: the traced pass is not normalized.
            metrics["setup.import_s"] = statistics.median(raw["import_s"])
            spans = raw.pop("spans")
        record = {"workload": workload, "w": args.w, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "machine": machine,
                  "loadavg_before": list(load_before), "loadavg_after": list(os.getloadavg()),
                  "summary": summary, "layers": raw.get("layers"),
                  "self_s": raw.pop("self_s", None), "raw": raw}
        stem = f"{workload}-w{args.w}-seed{args.seed}-trace{args.trace}"
        (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
        if args.trace:
            (results_dir / f"{stem}-spans.json").write_text(json.dumps(spans))
        print("\n".join(report(workload, args, summary, machine, load)))
        units = LAYER_METRICS if args.trace else END_TO_END
        if args.trace:
            for name, value in metrics.items():
                print(f"{workload} {name} {value:.6g} {units[name]}")
        final["correct"] &= summary["correct"]
        final["attempted"] += summary["attempted"]
        final["failed"] += summary["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        final["metrics"].update({prefix + k: {"value": v, "unit": units[k]}
                                 for k, v in metrics.items()})
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
