"""The four workloads: fixed op lists, the check on every op, and replays.

An op is one in-process `chromaplane.cli.main(argv)` call (stdout and
stderr captured) or one call to a public library function.  The caller
times `run()` with tracing off and passes its result to `check()`.
`replay(tracer)` makes the public calls the op's command makes, each inside
a span, for the traced run.  `check()` and `replay()` both return an
`Answer` whose `value` must agree between the two runs.

Seeds: the workload seed `w` picks the solver seeds 10w .. 10w+9; the run
seed picks the sampler seeds of the library cross-checks.  Verdicts and
output bytes depend on neither, so the same checks apply to every seed.
"""
from __future__ import annotations

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chromaplane import annulus, cli, distgraph, eightcol, hexcolor, solver

WORKLOADS = ("find", "refute", "tables", "export")
BUDGET = ["--budget", "5"]
FIND = ["annulus-lower", "--case", "2", "--b", "1.48", "--k", "5", "--n", "95"]
REFUTE = ["annulus-lower", "--case", "1", "--b", "1.35", "--k", "4", "--n", "130"]
THRESHOLD = ["threshold", "--case", "1", "--k", "4", "--n", "65",
             "--b-lo", "1.25", "--b-hi", "1.4", "--tol", "1e-3"]
MIN_COLORS = ["min-colors", "--b-lo", "1.3", "--b-hi", "14", "--step", "0.1"]
EXPORT_CASES = (["--case", "1", "--b", "1.35", "--k", "3"],
                ["--case", "2", "--b", "1.48", "--k", "4"])
VERIFY_ROWS = ((2, 3), (3, 4))
VERIFY_INSET = 1e-6
VERIFY_SAMPLES = 1_000_000
NUMERIC_TOL = 1e-6
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Answer:
    """What an op produced.  `reason` is None when the op passed its check;
    `value` is compared between the traced and untraced runs."""

    value: object
    reason: str | None = None
    counters: dict = field(default_factory=dict)


class _HashSink(io.TextIOBase):
    """Stands in for stdout: hashes and counts what the CLI writes, and keeps
    only a short head, so a 54 MB LP export is never held twice."""

    HEAD = 1 << 16

    def __init__(self):
        self._h = hashlib.sha256()
        self.bytes = 0
        self.head = ""

    def writable(self):
        return True

    def write(self, s):
        data = s.encode()
        self._h.update(data)
        self.bytes += len(data)
        if len(self.head) < self.HEAD:
            self.head += s[: self.HEAD - len(self.head)]
        return len(s)

    @property
    def sha256(self):
        return self._h.hexdigest()


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _csv_row(text: str) -> list[str]:
    return text.splitlines()[1].split(",")


@dataclass
class CliOp:
    argv: list[str]
    verdict: str | None = None  # required verdict of an annulus-lower solve

    @property
    def key(self) -> str:
        """The argv without its solver seed: the output does not depend on it."""
        argv = list(self.argv)
        if "--seed" in argv:
            i = argv.index("--seed")
            del argv[i : i + 2]
        return " ".join(argv)

    @property
    def name(self) -> str:
        return "cli." + self.argv[0]

    @property
    def calib(self) -> str:
        """The calibration kind of its work (calib.py): exports are a dense
        numpy build plus string building, every other command is
        interpreted search or table walking."""
        return "mixed" if self.argv[0] == "export" else "interp"

    def run(self) -> tuple[int, _HashSink, str]:
        out, err = _HashSink(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(self.argv)
        return code, out, err.getvalue()

    def check(self, result, expected: dict) -> Answer:
        code, out, err = result
        counters = {"cli.output_bytes": out.bytes}
        m = re.search(r"(?:nodes=|after )(\d+)", err)
        if m and self.argv[0] == "annulus-lower":
            counters["solver.search_nodes"] = int(m.group(1))
        if code == cli.EXIT_BUDGET:
            return Answer("budget", "budget", counters)
        if code != cli.EXIT_OK:
            return Answer(f"exit_{code}", f"exit_{code}", counters)
        if out.sha256 != expected[self.key]["sha256"]:
            return Answer(out.sha256, "sha256", counters)
        value = self.answer_from_stdout(out)
        if self.verdict is not None and value != self.verdict:
            return Answer(value, "verdict", counters)
        return Answer(value, None, counters)

    def answer_from_stdout(self, out: _HashSink):
        cmd = self.argv[0]
        if cmd == "annulus-lower":
            return _csv_row(out.head)[5]
        if cmd == "threshold":
            return _csv_row(out.head)[4]
        if cmd == "annulus-upper":
            return ",".join(_csv_row(out.head)[1:])
        return out.sha256

    # -- traced replay: the public calls the command makes -----------------

    def replay(self, t) -> Answer:
        cmd = self.argv[0]
        if cmd == "annulus-lower":
            return self._replay_solve(t)
        if cmd == "export":
            return self._replay_export(t)
        if cmd == "threshold":
            a = self.argv
            with t.span("annulus.threshold_bisect"):
                b_star = annulus.threshold_bisect(
                    int(_flag(a, "--case")), int(_flag(a, "--n")), int(_flag(a, "--k")),
                    float(_flag(a, "--b-lo")), float(_flag(a, "--b-hi")),
                    float(_flag(a, "--tol")), time_budget=float(_flag(a, "--budget")))
            return Answer(f"{b_star:.9g}")
        if cmd == "annulus-upper":
            k = int(_flag(self.argv, "--k"))
            with t.span("annulus.radial_best"):
                s, b = annulus.radial_best(k, 10 * k)
            binding = annulus.radial_max_b_detail(k, s)[2]
            return Answer(f"{s},{b:.9g},{binding}")
        if cmd == "hex-table":
            p_max, q_max = int(_flag(self.argv, "--p-max")), int(_flag(self.argv, "--q-max"))
            b_values = {}
            for p, q in hexcolor.sweep_pairs(p_max, q_max):
                with t.span("hexcolor.hex_b_max"):
                    b_values[(p, q)] = hexcolor.hex_b_max(p, q)
            with t.span("hexcolor.pareto_table"):
                rows = hexcolor.pareto_table(p_max, q_max, b_values=b_values)
            return Answer(sha256(hexcolor.pareto_table_csv(rows)))
        if cmd == "min-colors":
            lo, hi, step = (float(_flag(self.argv, f)) for f in ("--b-lo", "--b-hi", "--step"))
            grid = np.arange(lo, hi + step / 2, step)
            with t.span("hexcolor.min_colors_curve", points=len(grid)):
                rows = hexcolor.min_colors_curve(grid, 10)
            return Answer(sha256(hexcolor.min_colors_csv(rows)))
        if cmd == "eight-opt":
            with t.span("eightcol.maximize_b"):
                opt = eightcol.maximize_b(float(_flag(self.argv, "--tol")))
            return Answer(sha256(eightcol.optimum_json(opt)))
        raise ValueError(f"no replay for {cmd}")

    def config_args(self):
        """(case, b, eps, n) of the configuration this op builds, if any."""
        a = self.argv
        if a[0] not in ("annulus-lower", "export"):
            return None
        b = float(_flag(a, "--b"))
        n = int(_flag(a, "--n")) if "--n" in a else None
        return int(_flag(a, "--case")), b, distgraph.default_eps(b), n

    def _build(self, t):
        case, b, eps, n = self.config_args()
        with t.span("annulus.lower_bound_config"):
            config = annulus.lower_bound_config(case, b, eps, n)
        with t.span("distgraph.build_graph") as sp:
            g = distgraph.build_graph(config, b, eps)
            sp["points"], sp["edges"] = g.n, len(g.edges)
        return g

    def _replay_solve(self, t) -> Answer:
        k = int(_flag(self.argv, "--k"))
        seed = int(_flag(self.argv, "--seed"))
        g = self._build(t)
        adj = g.adjacency_masks()
        with t.span("solver.greedy_clique") as sp:
            sp["clique_size"] = len(solver.greedy_clique(adj, seed=seed))
        query = solver.KColorQuery(g, k - 1, float(_flag(self.argv, "--budget")))
        with t.span("solver.k_colorable") as sp:
            sp["vertices"] = g.n
            try:
                out = solver.k_colorable(query, seed=seed)
            except solver.BudgetExhausted as exc:
                sp["nodes"], sp["budget_exhausted"] = exc.search_nodes, 1
                return Answer("budget", "budget")
            sp["nodes"], sp["status"] = out.search_nodes, out.status
        if out.colorable and not solver.verify_coloring(g, out.assignment):
            return Answer(out.status, "assignment")
        return Answer(out.status)

    def exporter(self, g):
        """(span name, call) of an export op's exporter on graph g."""
        what, k = _flag(self.argv, "--what"), int(_flag(self.argv, "--k"))
        if what == "cnf":
            return "solver.export_cnf", lambda: solver.export_cnf(g, k)
        if what == "lp":
            return "solver.export_lp", lambda: solver.export_lp(g, k)
        return "distgraph.export_dimacs", lambda: distgraph.export_dimacs(g)

    def _replay_export(self, t) -> Answer:
        name, call = self.exporter(self._build(t))
        with t.span(name) as sp:
            text = call()
        sp["bytes"] = len(text.encode())
        return Answer(sha256(text))


@dataclass
class LibOp:
    """A sampled cross-check, called as a library function."""

    func: str  # "radial_max_b_numeric" or "verify_scheme_sampled"
    params: tuple
    seed: int
    calib = "vector"  # vectorized numpy sampling (calib.py)

    @property
    def name(self) -> str:
        mod = "annulus" if self.func == "radial_max_b_numeric" else "hexcolor"
        return f"{mod}.{self.func}"

    def run(self):
        if self.func == "radial_max_b_numeric":
            return annulus.radial_max_b_numeric(*self.params, seed=self.seed)
        p, q, b = self.params
        return hexcolor.verify_scheme_sampled(hexcolor.HexScheme(p, q), b, VERIFY_SAMPLES,
                                              seed=self.seed)

    def check(self, value, expected=None) -> Answer:
        if self.func == "radial_max_b_numeric":
            ok = abs(value - annulus.radial_max_b(*self.params)) <= NUMERIC_TOL
            return Answer(value, None if ok else "numeric")
        return Answer(value, None if value is True else "sampled")

    def replay(self, t) -> Answer:
        with t.span(self.name) as sp:
            value = self.run()
        if self.func == "verify_scheme_sampled":
            sp["samples"] = VERIFY_SAMPLES
        return self.check(value)


def solver_seeds(w: int) -> range:
    return range(10 * w, 10 * w + 10)


def sampler_seed(w: int, run_seed: int) -> int:
    """Seed of the sampled cross-checks; 0, the library default, at w = 0 and run seed 0."""
    return 1000 * w + run_seed


def build_ops(workload: str, w: int, run_seed: int) -> list:
    """The workload's fixed op list for workload seed w and run seed run_seed."""
    if workload == "find":
        return [CliOp(FIND + BUDGET + ["--seed", str(s)], verdict=solver.COLORABLE)
                for s in solver_seeds(w)]
    if workload == "refute":
        ops = [CliOp(REFUTE + BUDGET + ["--seed", str(s)], verdict=solver.NOT_COLORABLE)
               for s in solver_seeds(w)]
        return ops + [CliOp(THRESHOLD + BUDGET)]
    if workload == "tables":
        ops = [CliOp(["annulus-upper", "--k", str(k)]) for k in range(3, 9)]
        ops += [CliOp(["hex-table", "--p-max", "10", "--q-max", "10"]),
                CliOp(MIN_COLORS),
                CliOp(["eight-opt", "--tol", "1e-6"])]
        checks = [("radial_max_b_numeric", (k, s)) for k, s in annulus.RADIAL_SECTORS.items()]
        checks += [("verify_scheme_sampled", (p, q, hexcolor.hex_b_max(p, q) - VERIFY_INSET))
                   for p, q in VERIFY_ROWS]
        return ops + [LibOp(f, params, sampler_seed(w, run_seed)) for f, params in checks]
    if workload == "export":
        return [CliOp(["export", "--what", what] + case)
                for case in EXPORT_CASES for what in ("dimacs", "cnf", "lp")]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())
