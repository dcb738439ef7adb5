"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The full-scale refutation stretch run (600 s budget) is opt-in
via CHROMAPLANE_STRETCH=1.
"""
from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time

import pytest

from chromaplane import annulus, hexcolor
from chromaplane.cli import main as cli_main
from chromaplane.solver import (
    COLORABLE,
    NOT_COLORABLE,
    BudgetExhausted,
    KColorQuery,
    k_colorable,
)
from conftest import brute_force_k_colorable, random_circulant
from test_hexcolor import EXPECTED_PARETO

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(num: int, detail: str):
    print(f"criterion {num}: PASS - {detail}")


def best_time(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_criterion_1_radial_closed_forms():
    expected = {
        (3, 9): math.sqrt(2 - 2 * math.sin(math.pi / 18)),
        (4, 12): math.sqrt(2),
        (6, 12): math.sqrt(3),
        (7, 14): 2 * math.cos(math.pi / 7),
        (8, 16): math.sqrt(2 + math.sqrt(2)),
    }
    for (k, s), want in expected.items():
        got = annulus.radial_max_b(k, s)
        assert got == pytest.approx(want, abs=1e-6), (k, s)
        assert best_time(lambda: annulus.radial_max_b(k, s)) < 1e-3
    # the five-color scheme must match the numeric bound (the golden
    # ratio), not the reciprocal radical sometimes quoted for it
    b5 = annulus.radial_max_b(5, 10)
    assert b5 == pytest.approx(1.61803, abs=1e-5)
    assert best_time(lambda: annulus.radial_max_b(5, 10)) < 1e-3
    report(1, "five closed forms to 1e-6, k=5 numeric to 1e-5, each under 1 ms")


def test_criterion_2_hex_table_reproduction(capsys):
    t0 = time.perf_counter()
    rc = cli_main(["hex-table", "--p-max", "10", "--q-max", "10"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "b,n_colors,p,q"
    rows = []
    for ln in lines[1:]:
        b, n, p, q = ln.split(",")
        rows.append((float(b), int(n), int(p), int(q)))
    got = sorted((n, p, q) for _, n, p, q in rows)
    want = sorted((n, p, q) for _, n, p, q in EXPECTED_PARETO)
    assert got == want
    forms = {(p, q): b for b, _, p, q in EXPECTED_PARETO}
    matched = 0
    for b, _, p, q in rows:
        assert b == pytest.approx(forms[(p, q)], abs=1e-6)
        matched += 1
    assert matched >= 15
    assert elapsed < 60
    report(2, f"{len(rows)} rows, all b values match closed forms to 1e-6, {elapsed:.1f}s")


def test_criterion_3_color_count_lemma():
    t0 = time.perf_counter()
    for p, q in hexcolor.sweep_pairs(10, 10):
        assert hexcolor.enumerated_color_count(p, q) == p * p + p * q + q * q
    elapsed = time.perf_counter() - t0
    assert elapsed < 10
    report(3, f"orbit enumeration equals p^2+pq+q^2 for all p<=q<=10, {elapsed:.1f}s")


def test_criterion_4_named_families():
    for r in range(1, 7):
        exoo = math.sqrt(9 * r * r - 3 * r + 1) / 2
        lonc = 1.5 * r - 1
        gjssw = math.sqrt(3) / 2 * (r - 1)
        assert hexcolor.hex_b_max(r, r + 1) >= exoo - 1e-9
        if lonc >= 1:
            assert hexcolor.hex_b_max(r, r) >= lonc - 1e-9
        else:
            assert hexcolor.min_same_color_distance(r, r) >= lonc - 1e-9
        if gjssw >= 1:
            assert hexcolor.hex_b_max(r, 0) >= gjssw - 1e-9
        else:
            # schemes below width 1 have no usable b; the raw same-color
            # tile distance still meets the family bound
            assert hexcolor.hex_b_max(r, 0) is None
            assert hexcolor.min_same_color_distance(r, 0) >= gjssw - 1e-9
    report(4, "family reaches meet their bounds for r=1..6 (slack >= -1e-9)")


def test_criterion_5_eight_coloring_optimum(capsys):
    t0 = time.perf_counter()
    rc = cli_main(["eight-opt", "--tol", "1e-6"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert 1.3744 <= payload["b"] <= 1.3755
    slacks = payload["slacks"]
    assert abs(slacks[0]) <= 1e-4
    assert abs(slacks[2]) <= 1e-4
    assert slacks[1] >= 0.29
    assert elapsed < 30
    report(5, f"b={payload['b']:.6f}, slacks 1/3 within 1e-4, slack 2 >= 0.29, {elapsed:.1f}s")


def test_criterion_6_solver_soundness(moser_spindle):
    t0 = time.perf_counter()
    assert k_colorable(KColorQuery(moser_spindle, 3)).status == NOT_COLORABLE
    assert k_colorable(KColorQuery(moser_spindle, 4)).status == COLORABLE
    spindle_time = time.perf_counter() - t0
    assert spindle_time < 1.0

    rng = random.Random(2024)
    for _ in range(200):
        g = random_circulant(rng, max_n=12)
        for k in (2, 3, 4):
            got = k_colorable(KColorQuery(g, k)).colorable
            want = brute_force_k_colorable(g.n, g.edges.tolist(), k)
            assert got == want, (g.n, g.edges, k)
    report(6, f"spindle in {spindle_time:.3f}s; 200 circulants agree with brute force")


def test_criterion_7_desk_scale_case2_stability():
    b = 1.48
    verdicts = {}
    for scale in (1e-5, 1e-6, 1e-7):
        for seed in (0, 1):
            g = annulus.case_graph(2, b, (b - 1) * scale, n_override=95)
            out = annulus.annulus_verdict(g, 5, seed=seed)
            verdicts[(scale, seed)] = out.status
    statuses = set(verdicts.values())
    assert len(statuses) == 1, f"verdict differs across eps/seed: {verdicts}"
    status = statuses.pop()
    if status == NOT_COLORABLE:
        assert annulus.lift_lower_bound(5) == 8
        detail = "refuted 4 colors at n=95; lifted plane bound 8"
    else:
        detail = "n=95 subset is 4-colorable; verdict stable across eps and seeds"
    report(7, detail)


@pytest.mark.skipif(
    os.environ.get("CHROMAPLANE_STRETCH") != "1",
    reason="full-scale refutation is a stretch target (600 s budget); set CHROMAPLANE_STRETCH=1",
)
def test_criterion_7_stretch_full_scale_case2():
    try:
        out = annulus.annulus_verdict(annulus.case_graph(2, 1.48), 5, time_budget=600)
    except BudgetExhausted as exc:
        report(7, f"stretch: budget exhausted after {exc.search_nodes} nodes (reported, not failed)")
        return
    assert out.status == NOT_COLORABLE
    assert annulus.lift_lower_bound(5) == 8
    report(7, "stretch: full-scale case 2 refuted 4 colors; plane bound 8")


def test_criterion_8_lift():
    for k in range(1, 11):
        assert annulus.lift_lower_bound(k) == k + 3
    report(8, "lift adds exactly 3 for k=1..10")


CLI_DETERMINISM = [
    ("annulus-upper", "--k", "6"),
    ("annulus-lower", "--case", "1", "--b", "1.35", "--k", "4", "--n", "65"),
    ("threshold", "--case", "1", "--k", "4", "--n", "65",
     "--b-lo", "1.25", "--b-hi", "1.4", "--tol", "1e-3"),
    ("hex-table", "--p-max", "5", "--q-max", "5"),
    ("min-colors", "--b-lo", "1.3", "--b-hi", "3.0", "--step", "0.5"),
    ("eight-opt", "--tol", "1e-6"),
    ("export", "--what", "lp", "--case", "2", "--b", "1.48", "--n", "12", "--k", "4"),
]


def test_criterion_9_cli_determinism():
    for args in CLI_DETERMINISM:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "chromaplane.cli", *args],
                capture_output=True,
                cwd=PKG_ROOT,
                timeout=300,
            )
            assert proc.returncode == 0, (args, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], f"output differs across runs: {args}"
    report(9, f"{len(CLI_DETERMINISM)} commands byte-identical across two runs")
