"""Command-line front door.

Every command is deterministic for fixed flags and seed: primary output
(stdout or --out) is byte-identical across runs, progress and errors go
to stderr. Exit codes: 0 ok, 2 usage, 3 budget exhausted, 4 internal.
Tables and records are printed by the text module. Each flag's range is
its argparse type. Rules that join two flags raise UsageError, as does a
value the library refuses in the instance the flags give (an --eps too wide
for --b, a radius of 2**500 or more, points or edges past
distgraph.MAX_GRAPH_ROWS), naming its flags.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import annulus, distgraph, eightcol, hexcolor, solver
from .text import record_text, table_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

class UsageError(Exception):
    pass


def _emit(chunks, out_path: str | None):
    """Print a text, or the chunks of a streamed export, as they come; or
    write them to out_path through a temporary file and a rename, so the
    target never holds a partial text."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    if not out_path:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe early, which is not an error. Point
            # stdout's fd at devnull so the interpreter's final flush of what
            # is still buffered prints nothing.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    tmp = f"{out_path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, out_path)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out_path}: {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _int_at_least(low: int):
    """An argparse type: an int >= low. Named int, so a non-number reads 'invalid int value'."""
    def int_(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    int_.__name__ = "int"
    return int_


def _float_above(low: float):
    """An argparse type: a finite float > low (NaN is not). Named float, like float's errors."""
    def float_(text: str) -> float:
        value = float(text)
        if not low < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a finite number > {low:g}, got {value}")
        return value

    float_.__name__ = "float"
    return float_


def _instance_flags(args) -> str:
    """The flags that give the command's graph, as every refusal of it names them."""
    if getattr(args, "config", None):
        return f"--config {args.config}"
    return "--case, --b, --n, --eps" if "eps" in args else "--case, --n"


def _case_config(args, b: float):
    """The lower-bound configuration that --case and --n give at width b, and
    its eps: --eps where the command has it, else the default inset for b."""
    eps = getattr(args, "eps", None)
    if eps is None:
        eps = distgraph.default_eps(b)
    try:
        return annulus.lower_bound_config(args.case, b, eps, args.n), eps
    except ValueError as exc:
        raise UsageError(f"{_instance_flags(args)}: {exc}") from exc


def _heartbeat(nodes: int, elapsed: float):
    print(f"progress: nodes={nodes} elapsed={elapsed:.0f}s", file=sys.stderr, flush=True)


def cmd_annulus_upper(args) -> str:
    s_max = args.s_max if args.s_max is not None else 10 * args.k
    if s_max < 2 * args.k:
        raise UsageError(f"--s-max must be >= 2 * --k = {2 * args.k}, got {s_max}")
    best = annulus.radial_best(args.k, s_max)
    if best is None:
        record = {"k": args.k, "s": None, "b_max": None, "binding": "no_valid_b"}
    else:
        s, b = best
        _, _, binding = annulus.radial_max_b_detail(args.k, s)
        record = {"k": args.k, "s": s, "b_max": b, "binding": binding}
    return record_text(record, args.format)


def cmd_annulus_lower(args) -> str:
    config, eps = _case_config(args, args.b)
    g = distgraph.build_graph(config, args.b, eps)
    outcome = annulus.annulus_verdict(g, args.k, args.budget, args.seed, _heartbeat)
    refuted = outcome.status == solver.NOT_COLORABLE
    plane = annulus.lift_lower_bound(args.k) if refuted else None
    record = {
        "case": args.case,
        "b": args.b,
        "points": g.n,
        "k": args.k,
        "eps": eps,
        "verdict": outcome.status,
        "annulus_lower_bound": args.k if refuted else None,
        "plane_lower_bound": plane,
    }
    print(f"solver: nodes={outcome.search_nodes}", file=sys.stderr)
    return record_text(record, args.format)


def cmd_threshold(args) -> str:
    # the point count does not depend on b, so an --n it refuses exits before any probe
    _case_config(args, args.b_hi)
    b_star = annulus.threshold_bisect(
        args.case,
        args.n,
        args.k,
        args.b_lo,
        args.b_hi,
        args.tol,
        time_budget=args.budget,
        seed=args.seed,
    )
    record = {
        "case": args.case,
        "k": args.k,
        "n_override": args.n,
        "tol": args.tol,
        "b_star": b_star,
    }
    return record_text(record, args.format)


def cmd_hex_table(args) -> str:
    rows = hexcolor.pareto_table(args.p_max, args.q_max)
    return table_text(hexcolor.PARETO_FIELDS, rows, args.format)


def cmd_min_colors(args) -> str:
    if args.b_hi < args.b_lo:
        raise UsageError("need --b-lo <= --b-hi")
    try:
        grid = np.arange(args.b_lo, args.b_hi + args.step / 2, args.step)
    except (ValueError, MemoryError) as exc:  # more grid points than an array can index or fit
        raise UsageError(f"--b-lo to --b-hi by --step: {exc}") from exc
    rows = hexcolor.min_colors_curve(grid, args.search_max)
    return table_text(hexcolor.MIN_COLORS_FIELDS, rows, args.format)


def cmd_eight_opt(args) -> str:
    try:
        opt = eightcol.maximize_b(args.tol)
    except ValueError as exc:
        raise UsageError(f"--tol: {exc}") from exc
    if args.format == "json":
        return eightcol.optimum_json(opt)
    record = {"b": opt.b, "x": opt.x, "y": opt.y,
              "active_constraints": ";".join(map(str, opt.active_constraints))}
    record.update((f"slack_{i}", s) for i, s in enumerate(opt.slacks, 1))
    return record_text(record)


def cmd_export(args):
    """The export's chunk generator; the graph is built here, the text as it is written."""
    if args.what != "dimacs" and args.k is None:
        raise UsageError(f"--k is required for {args.what} export")
    if args.config:
        extra = [f"--{f}" for f in ("case", "b", "n", "eps") if getattr(args, f) is not None]
        if extra:
            raise UsageError(f"--config takes the graph from the file; drop {', '.join(extra)}")
        try:
            with open(args.config) as fh:
                config, b, eps = distgraph.config_from_json(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read --config {args.config}: {exc.strerror or exc}") from exc
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad --config {args.config}: {exc}") from exc
    else:
        if args.case is None or args.b is None:
            raise UsageError("export needs either --config or --case with --b")
        config, eps = _case_config(args, args.b)
        b = args.b
    graph = distgraph.build_graph(config, b, eps)
    if args.what == "dimacs":
        return distgraph.dimacs_chunks(graph)
    if args.what == "cnf":
        return solver.cnf_chunks(graph, args.k)
    return solver.lp_chunks(graph, args.k)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command parser, built once per process: parse_args reads it and
    leaves it as it was, so main shares it across calls."""
    ap = argparse.ArgumentParser(
        prog="chromaplane",
        description="Bounds and exact colorings for interval-distance graphs of the plane.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def output(p, fmt_default="csv"):
        p.add_argument("--out", default=None, help="write primary output here instead of stdout")
        if fmt_default:
            p.add_argument("--format", choices=("csv", "json"), default=fmt_default)

    def search(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=_float_above(0.0), default=None,
                       help="time budget in seconds")

    p = sub.add_parser("annulus-upper", help="best radial coloring bound for k colors")
    p.add_argument("--k", type=_int_at_least(2), required=True)
    p.add_argument("--s-max", type=int, default=None)
    output(p)
    p.set_defaults(fn=cmd_annulus_upper)

    p = sub.add_parser("annulus-lower", help="solve a lower-bound configuration")
    p.add_argument("--case", type=int, required=True, choices=tuple(annulus.CASE_CIRCLE_COUNTS))
    p.add_argument("--b", type=_float_above(1.0), required=True)
    p.add_argument("--k", type=_int_at_least(2), required=True, help="annulus colors to certify")
    p.add_argument("--n", type=_int_at_least(1), default=None, help="override points per circle")
    p.add_argument("--eps", type=_float_above(0.0), default=None)
    output(p)
    search(p)
    p.set_defaults(fn=cmd_annulus_lower)

    p = sub.add_parser("threshold", help="bisect the b where a config starts needing k colors")
    p.add_argument("--case", type=int, required=True, choices=tuple(annulus.CASE_CIRCLE_COUNTS))
    p.add_argument("--k", type=_int_at_least(2), required=True)
    p.add_argument("--n", type=_int_at_least(1), default=None)
    p.add_argument("--b-lo", type=_float_above(1.0), required=True)
    p.add_argument("--b-hi", type=_float_above(1.0), required=True)
    p.add_argument("--tol", type=_float_above(0.0), default=1e-4)
    output(p)
    search(p)
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("hex-table", help="Pareto table of hexagonal (p,q) colorings")
    p.add_argument("--p-max", type=_int_at_least(0), default=10)
    p.add_argument("--q-max", type=_int_at_least(0), default=10)
    output(p)
    p.set_defaults(fn=cmd_hex_table)

    p = sub.add_parser("min-colors", help="fewest colors vs b over a grid")
    p.add_argument("--b-lo", type=_float_above(1.0), required=True)
    p.add_argument("--b-hi", type=_float_above(1.0), required=True)
    p.add_argument("--step", type=_float_above(0.0), default=0.1)
    p.add_argument("--search-max", type=_int_at_least(0), default=10)
    output(p)
    p.set_defaults(fn=cmd_min_colors)

    p = sub.add_parser("eight-opt", help="optimize the eight-coloring parameters")
    p.add_argument("--tol", type=float, default=1e-6)
    output(p, fmt_default="json")
    p.set_defaults(fn=cmd_eight_opt)

    p = sub.add_parser("export", help="write a configuration graph as dimacs/cnf/lp")
    p.add_argument("--what", choices=("dimacs", "cnf", "lp"), required=True)
    p.add_argument("--case", type=int, default=None, choices=tuple(annulus.CASE_CIRCLE_COUNTS))
    p.add_argument("--b", type=_float_above(1.0), default=None)
    p.add_argument("--n", type=_int_at_least(1), default=None)
    p.add_argument("--eps", type=_float_above(0.0), default=None)
    p.add_argument("--k", type=_int_at_least(1), default=None)
    p.add_argument("--config", default=None, help="JSON config {circles:[{n,r}], b, eps}")
    output(p, fmt_default=None)
    p.set_defaults(fn=cmd_export)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _emit(args.fn(args), args.out)
        return EXIT_OK
    except solver.BudgetExhausted as exc:
        print(f"chromaplane: error: budget_exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except UsageError as exc:
        print(f"chromaplane: error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except distgraph.GraphTooLarge as exc:  # edges past the cap, which only the build counts
        print(f"chromaplane: error: usage: {_instance_flags(args)}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except annulus.InstanceError as exc:  # a statement about the instance, not a bug
        print(f"chromaplane: error: {exc.label}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001
        print(f"chromaplane: error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
