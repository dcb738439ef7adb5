"""Exact-counter self-check of the benchmark (takes about three minutes).

    python3 -m pytest perfbench/test_selfcheck.py -q

Run from the root of a checkout.  Each workload runs twice at w = 0, each
run one timed pass plus one traced pass.  Counters that do not depend on
the machine must repeat exactly across the two runs and match the values
recorded at commit 2c4636b; the traced replay must give the same answers
as the untraced ops.
"""
from pathlib import Path

import pytest

from run import pinned_env, run_workload, summarize

ROOT = Path.cwd()
EXACT = ("solver.clique_size", "distgraph.edges", "distgraph.points",
         "cli.output_bytes", "solver.export.bytes")
# Search nodes per solve at w = 0; None marks the budget-cut solve (seed 2),
# whose count depends on the machine and is not compared.
NODES_W0 = {
    "find": [104_190, 225, None, 2_416, 2_416, 1_483, 1_493, 225, 32_015, 104_190],
    "refute": [7_706] * 10,
}
EDGES_W0 = {"export": [388_700] * 3 + [11_400] * 3}
FAIL_RATIO_W0 = {"find": 0.1, "refute": 0.0, "tables": 0.0, "export": 0.0}


def solve_nodes(raw):
    """Search nodes per solve from the spans, None for a budget-cut solve."""
    return [None if s.get("budget_exhausted") else s["nodes"]
            for s in raw["spans"] if s["name"] == "solver.k_colorable"]


@pytest.fixture(scope="module", params=["find", "refute", "tables", "export"])
def runs(request):
    if not (ROOT / "src" / "chromaplane").is_dir():
        pytest.skip("run from the root of a chromaplane checkout")
    env = pinned_env(ROOT)
    return request.param, [run_workload(request.param, 0, 0, 0, 1, env, ROOT) for _ in range(2)]


def test_counters_repeat_exactly(runs):
    _, (a, b) = runs
    assert {k: a["layers"][k] for k in EXACT} == {k: b["layers"][k] for k in EXACT}
    assert solve_nodes(a) == solve_nodes(b)


def test_traced_replay_gives_untraced_answers(runs):
    _, raws = runs
    for raw in raws:
        untraced = [{"value": r["value"], "reason": r["reason"]}
                    for r in raw["passes"][0] if r["rep"] == 0]
        assert raw["answers"] == untraced


def test_untraced_and_traced_node_counts_agree(runs):
    workload, (raw, _) = runs
    from_stderr = [None if r["reason"] == "budget" else r["counters"]["solver.search_nodes"]
                   for r in raw["passes"][0]
                   if r["rep"] == 0 and "solver.search_nodes" in r["counters"]]
    assert from_stderr == solve_nodes(raw)


def test_seed_commit_counts(runs):
    workload, (raw, _) = runs
    if workload in NODES_W0:
        assert solve_nodes(raw) == NODES_W0[workload]
    if workload in EDGES_W0:
        edges = [s["edges"] for s in raw["spans"] if s["name"] == "distgraph.build_graph"]
        assert edges == EDGES_W0[workload]
    summary = summarize(raw)
    assert summary["fail_ratio"] == FAIL_RATIO_W0[workload]
    assert set(summary["fail_reasons"]) == ({"budget"} if workload == "find" else set())
    assert summary["correct"]
