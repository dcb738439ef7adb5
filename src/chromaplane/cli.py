"""Command-line front door.

Every command is deterministic for fixed flags and seed: primary output
(stdout or --out) is byte-identical across runs, progress and errors go
to stderr. Exit codes: 0 ok, 2 usage, 3 budget exhausted, 4 internal.
Floats in CSV/JSON are printed with 9 significant digits, enough to
separate every constant the package produces.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import annulus, distgraph, eightcol, hexcolor, solver

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _heartbeat(nodes: int, elapsed: float):
    print(f"progress: nodes={nodes} elapsed={elapsed:.0f}s", file=sys.stderr, flush=True)


def cmd_annulus_upper(args) -> str:
    s_max = args.s_max if args.s_max is not None else 10 * args.k
    best = annulus.radial_best(args.k, s_max)
    if best is None:
        record = {"k": args.k, "s": None, "b_max": None, "binding": "no_valid_b"}
    else:
        s, b = best
        _, _, binding = annulus.radial_max_b_detail(args.k, s)
        record = {"k": args.k, "s": s, "b_max": b, "binding": binding}
    if args.format == "json":
        return json.dumps(record, indent=2) + "\n"
    vals = [
        str(record["k"]),
        "" if record["s"] is None else str(record["s"]),
        "" if record["b_max"] is None else _fmt(record["b_max"]),
        record["binding"],
    ]
    return "k,s,b_max,binding\n" + ",".join(vals) + "\n"


def cmd_annulus_lower(args) -> str:
    eps = args.eps if args.eps is not None else distgraph.default_eps(args.b)
    outcome = annulus.annulus_verdict(
        args.case,
        args.b,
        args.k,
        n_override=args.n,
        eps=eps,
        time_budget=args.budget,
        seed=args.seed,
        progress=_heartbeat,
    )
    refuted = outcome.status == solver.NOT_COLORABLE
    plane = annulus.lift_lower_bound(args.k) if refuted else None
    n_points = annulus.lower_bound_config(args.case, args.b, eps, args.n).point_count
    record = {
        "case": args.case,
        "b": args.b,
        "points": n_points,
        "k": args.k,
        "eps": eps,
        "verdict": outcome.status,
        "annulus_lower_bound": args.k if refuted else None,
        "plane_lower_bound": plane,
    }
    print(f"solver: nodes={outcome.search_nodes}", file=sys.stderr)
    if args.format == "json":
        return json.dumps(record, indent=2) + "\n"
    head = "case,b,points,k,eps,verdict,annulus_lower_bound,plane_lower_bound"
    vals = [
        str(args.case),
        _fmt(args.b),
        str(n_points),
        str(args.k),
        _fmt(eps),
        outcome.status,
        str(args.k) if refuted else "",
        str(plane) if refuted else "",
    ]
    return head + "\n" + ",".join(vals) + "\n"


def cmd_threshold(args) -> str:
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
    if args.format == "json":
        return json.dumps(record, indent=2) + "\n"
    head = "case,k,n_override,tol,b_star"
    vals = [
        str(args.case),
        str(args.k),
        "" if args.n is None else str(args.n),
        _fmt(args.tol),
        _fmt(b_star),
    ]
    return head + "\n" + ",".join(vals) + "\n"


def cmd_hex_table(args) -> str:
    if args.p_max < 0 or args.q_max < 0:
        raise UsageError("--p-max and --q-max must be >= 0")
    rows = hexcolor.pareto_table(args.p_max, args.q_max)
    if args.format == "json":
        payload = [
            {"b": r.b, "n_colors": r.n_colors, "p": r.p, "q": r.q} for r in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    return hexcolor.pareto_table_csv(rows)


def cmd_min_colors(args) -> str:
    if args.step <= 0:
        raise UsageError(f"--step must be positive, got {args.step}")
    if args.b_hi < args.b_lo:
        raise UsageError("need --b-lo <= --b-hi")
    if args.search_max < 0:
        raise UsageError(f"--search-max must be >= 0, got {args.search_max}")
    grid = np.arange(args.b_lo, args.b_hi + args.step / 2, args.step)
    rows = hexcolor.min_colors_curve(grid, args.search_max)
    if args.format == "json":
        payload = [{"b": float(b), "min_colors": n} for b, n in rows]
        return json.dumps(payload, indent=2) + "\n"
    return hexcolor.min_colors_csv(rows)


def cmd_eight_opt(args) -> str:
    if args.tol <= 0:
        raise UsageError(f"--tol must be positive, got {args.tol}")
    opt = eightcol.maximize_b(args.tol)
    if args.format == "csv":
        head = "b,x,y,active_constraints,slack_1,slack_2,slack_3,slack_4"
        vals = [_fmt(opt.b), _fmt(opt.x), _fmt(opt.y), ";".join(map(str, opt.active_constraints))]
        vals += [_fmt(s) for s in opt.slacks]
        return head + "\n" + ",".join(vals) + "\n"
    return eightcol.optimum_json(opt)


def cmd_export(args) -> str:
    if args.config:
        with open(args.config) as fh:
            config, b, eps = distgraph.config_from_json(fh.read())
    else:
        if args.case is None or args.b is None:
            raise UsageError("export needs either --config or --case with --b")
        b = args.b
        eps = args.eps if args.eps is not None else distgraph.default_eps(b)
        config = annulus.lower_bound_config(args.case, b, eps, args.n)
    graph = distgraph.build_graph(config, b, eps)
    if args.what == "dimacs":
        return distgraph.export_dimacs(graph)
    if args.k is None:
        raise UsageError(f"--k is required for {args.what} export")
    if args.what == "cnf":
        return solver.export_cnf(graph, args.k)
    return solver.export_lp(graph, args.k)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chromaplane",
        description="Bounds and exact colorings for interval-distance graphs of the plane.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="csv"):
        p.add_argument("--out", default=None, help="write primary output here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default=fmt_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=float, default=None, help="time budget in seconds")

    p = sub.add_parser("annulus-upper", help="best radial coloring bound for k colors")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s-max", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_annulus_upper)

    p = sub.add_parser("annulus-lower", help="solve a lower-bound configuration")
    p.add_argument("--case", type=int, required=True, choices=(1, 2, 3, 4, 5))
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--k", type=int, required=True, help="annulus colors to certify")
    p.add_argument("--n", type=int, default=None, help="override points per circle")
    p.add_argument("--eps", type=float, default=None)
    common(p)
    p.set_defaults(fn=cmd_annulus_lower)

    p = sub.add_parser("threshold", help="bisect the b where a config starts needing k colors")
    p.add_argument("--case", type=int, required=True, choices=(1, 2, 3, 4, 5))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--b-lo", type=float, required=True)
    p.add_argument("--b-hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    common(p)
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("hex-table", help="Pareto table of hexagonal (p,q) colorings")
    p.add_argument("--p-max", type=int, default=10)
    p.add_argument("--q-max", type=int, default=10)
    common(p)
    p.set_defaults(fn=cmd_hex_table)

    p = sub.add_parser("min-colors", help="fewest colors vs b over a grid")
    p.add_argument("--b-lo", type=float, required=True)
    p.add_argument("--b-hi", type=float, required=True)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--search-max", type=int, default=10)
    common(p)
    p.set_defaults(fn=cmd_min_colors)

    p = sub.add_parser("eight-opt", help="optimize the eight-coloring parameters")
    p.add_argument("--tol", type=float, default=1e-6)
    common(p, fmt_default="json")
    p.set_defaults(fn=cmd_eight_opt)

    p = sub.add_parser("export", help="write a configuration graph as dimacs/cnf/lp")
    p.add_argument("--what", choices=("dimacs", "cnf", "lp"), required=True)
    p.add_argument("--case", type=int, default=None, choices=(1, 2, 3, 4, 5))
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON config {circles:[{n,r}], b, eps}")
    common(p)
    p.set_defaults(fn=cmd_export)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        text = args.fn(args)
        _emit(text, args.out)
        return EXIT_OK
    except solver.BudgetExhausted as exc:
        print(f"chromaplane: error: budget_exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, ValueError) as exc:
        print(f"chromaplane: error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except annulus.BracketInvalid as exc:
        print(f"chromaplane: error: bracket_invalid: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001
        print(f"chromaplane: error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
