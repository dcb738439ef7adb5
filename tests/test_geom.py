import math
import random
import re

import numpy as np
import pytest

from chromaplane import annulus, distgraph, hexcolor, solver
from chromaplane.annulus import (
    CASE_CIRCLE_COUNTS,
    CASE_THRESHOLDS,
    RadialScheme,
    annulus_verdict,
    case_graph,
    lift_lower_bound,
    lower_bound_config,
    radial_best,
    radial_max_b_numeric,
    radial_violation_exists,
    threshold_bisect,
)
from chromaplane.distgraph import build_graph
from chromaplane.geom import (
    COORD_LIMIT,
    DRAW_CHUNK,
    FORBIDDEN_BAND,
    check_count,
    check_width,
    chord,
    forbidden_distances,
    forbidden_pair_draws,
    pair_distances,
)
from chromaplane.hexcolor import (
    HexScheme,
    best_scheme_for_b,
    hex_b_max,
    min_colors_curve,
    named_family,
    sweep_pairs,
    verify_scheme_sampled,
)
from chromaplane.solver import KColorQuery, export_cnf, export_lp, k_colorable


def test_chord_examples():
    assert chord(math.pi) == pytest.approx(2, abs=1e-12)
    assert chord(4 * math.pi / 9) == pytest.approx(
        math.sqrt(2 - 2 * math.sin(math.pi / 18)), abs=1e-12
    )


def test_chord_rejects_bad_input():
    with pytest.raises(ValueError):
        chord(-0.1)
    with pytest.raises(ValueError):
        chord(3.5)


def test_chord_strictly_increasing_in_angle():
    rng = random.Random(11)
    for _ in range(300):
        a1, a2 = sorted((rng.uniform(1e-6, math.pi), rng.uniform(1e-6, math.pi)))
        if a2 - a1 > 1e-12:
            assert chord(a1) < chord(a2)


def test_pair_distances_matches_hypot():
    rng = np.random.default_rng(3)
    p, q = rng.uniform(-2, 2, (7, 2)), rng.uniform(-2, 2, (5, 2))
    d = pair_distances(p, q)
    assert d.shape == (7, 5)
    want = np.hypot(p[:, None, 0] - q[None, :, 0], p[:, None, 1] - q[None, :, 1])
    assert np.allclose(d, want, rtol=0, atol=1e-15)


def _broadcast_distances(p, q):
    # the (n, m, 2) broadcast form pair_distances had before its coordinate planes
    diff = p[:, None, :] - q[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def test_pair_distances_bit_identical_to_broadcast_form(monkeypatch):
    rng = np.random.default_rng(17)
    shapes = [(0, 4), (6, 0), (0, 0), (1, 1300), (7, 5), (180, 180), (500, 800)]
    inputs = [(rng.uniform(-3, 3, (n, 2)), rng.uniform(-3, 3, (m, 2))) for n, m in shapes]
    # near +-2**499 (below COORD_LIMIT) each squared difference is near 2**1000,
    # still finite, and their sum too
    big = rng.choice([-1.0, 1.0], (40, 2)) * rng.uniform(0.5, 1.0, (40, 2)) * 2.0**499
    assert np.abs(big).max() < COORD_LIMIT
    inputs.append((big, big[::-1]))
    # every slice the circulant build measures, on cases 1-5 at full scale
    slices = []

    def record(p, q):
        slices.append((p.copy(), q.copy()))
        return pair_distances(p, q)

    monkeypatch.setattr(distgraph, "pair_distances", record)
    for case in CASE_CIRCLE_COUNTS:
        b = CASE_THRESHOLDS[case]
        distgraph.build_graph(lower_bound_config(case, b), b)
    monkeypatch.undo()
    rings = [CASE_CIRCLE_COUNTS[case][1] for case in CASE_CIRCLE_COUNTS]
    assert len(slices) == sum(r * (r + 1) // 2 for r in rings)
    for p, q in inputs + slices:
        got = pair_distances(p, q)
        assert got.shape == (len(p), len(q))
        assert np.array_equal(got, _broadcast_distances(p, q)), (p.shape, q.shape)
        assert np.isfinite(got).all()


@pytest.mark.parametrize("first", ["radial", "hex"])
def test_forbidden_pair_draws_are_rng_uniform(first):
    # full chunks and one partial chunk, each value rng.uniform's bit for
    # bit; the chunks are views of one reused buffer, so each is copied
    seed, b, band = 5, 1.3, FORBIDDEN_BAND
    if first == "radial":
        u_range, v_range = (1.0, b * b), (0.0, 2.0 * math.pi)
    else:
        span = 4.7
        u_range = v_range = (-span, span)
    n = 3 * DRAW_CHUNK + 1234
    chunks = [blk.copy() for blk in forbidden_pair_draws(seed, n, u_range, v_range, b)]
    q, r = divmod(n, 16_384)
    assert [blk.shape for blk in chunks] == [(4, 16_384)] * q + [(4, r)]
    rng = np.random.default_rng(seed)
    ranges = (u_range, v_range, (1.0 + band, b - band), (0.0, 2.0 * math.pi))
    for got in chunks:
        want = [rng.uniform(low, high, got.shape[1]) for low, high in ranges]
        assert np.array_equal(got, want)


def test_forbidden_pair_draws_small_and_empty():
    blocks = list(forbidden_pair_draws(0, 10, (0.0, 1.0), (0.0, 1.0), 1.5))
    assert [blk.shape for blk in blocks] == [(4, 10)]
    assert list(forbidden_pair_draws(0, 0, (0.0, 1.0), (0.0, 1.0), 1.5)) == []


def test_forbidden_distances_window_is_open():
    d = np.array([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.2, 1.5 - 2e-9, 1.5 - 1e-9, 1.5, 2.0])
    assert FORBIDDEN_BAND == 1e-9
    got = forbidden_distances(d, 1.5)
    assert got.tolist() == [False, False, True, True, True, False, False, False]


def _argument_table():
    """Every library entry that reads a count or a width b: (entry, argument,
    low, call of one value, a value it accepts); low is None for a width."""
    g = case_graph(1, 1.35, n_override=5)
    config = lower_bound_config(1, 1.35, n_override=5)
    return [
        ("RadialScheme", "k", 2, lambda v: RadialScheme(v, 12), 4),
        ("RadialScheme", "s", 6, lambda v: RadialScheme(3, v), 9),
        ("radial_best", "k", 2, lambda v: radial_best(v, 40), 4),
        ("radial_best", "s_max", 6, lambda v: radial_best(3, v), 30),
        ("lift_lower_bound", "annulus_colors", 1, lift_lower_bound, 4),
        ("annulus_verdict", "k", 2, lambda v: annulus_verdict(g, v), 4),
        ("threshold_bisect", "k", 2, lambda v: threshold_bisect(1, 5, v, 1.01, 1.9, 1e-2), 3),
        ("lower_bound_config", "case", 1, lambda v: lower_bound_config(v, 1.35), 2),
        ("lower_bound_config", "n_override", 1,
         lambda v: lower_bound_config(1, 1.35, n_override=v), 5),
        ("case_graph", "n_override", 1, lambda v: case_graph(1, 1.35, n_override=v), 5),
        ("threshold_bisect", "n_override", 1,
         lambda v: threshold_bisect(1, v, 3, 1.01, 1.9, 1e-2), 5),
        ("HexScheme", "p", 0, lambda v: HexScheme(v, 2), 1),
        ("HexScheme", "q", 0, lambda v: HexScheme(1, v), 2),
        ("hex_b_max", "p", 0, lambda v: hex_b_max(v, 2), 1),
        ("sweep_pairs", "p_max", 0, lambda v: sweep_pairs(v, 3), 2),
        ("sweep_pairs", "q_max", 0, lambda v: sweep_pairs(3, v), 2),
        ("named_family", "r", 1, lambda v: named_family("exoo", v), 2),
        ("KColorQuery", "k", 1, lambda v: k_colorable(KColorQuery(g, v)), 3),
        ("export_cnf", "k", 1, lambda v: export_cnf(g, v), 3),
        ("export_lp", "k", 1, lambda v: export_lp(g, v), 3),
        ("radial_violation_exists", "n_pairs", 0,
         lambda v: radial_violation_exists(4, 12, 1.3, n_pairs=v), 1_000),
        ("radial_max_b_numeric", "n_pairs", 0,
         lambda v: radial_max_b_numeric(4, 12, n_pairs=v), 1_000),
        ("verify_scheme_sampled", "samples", 0,
         lambda v: verify_scheme_sampled(HexScheme(1, 2), 1.3, samples=v), 1_000),
        ("lower_bound_config", "b", None, lambda v: lower_bound_config(1, v), 1.35),
        ("build_graph", "b", None, lambda v: build_graph(config, v), 1.35),
        ("verify_scheme_sampled", "b", None,
         lambda v: verify_scheme_sampled(HexScheme(1, 2), v, samples=10), 1.3),
        ("best_scheme_for_b", "b", None, best_scheme_for_b, 1.3),
        ("min_colors_curve", "b", None, lambda v: min_colors_curve([1.5, v]), 1.3),
        ("radial_violation_exists", "b", None,
         lambda v: radial_violation_exists(4, 12, v, n_pairs=10), 1.3),
    ]


def test_library_entries_refuse_bad_counts_and_widths(monkeypatch):
    # one rule per kind of argument: a count is an integer >= low (a bool or
    # a float is not one), a width b lies in (1, inf). Each entry refuses a bad
    # one with a ValueError naming it before any graph, solve, draw, sweep or
    # export table is made, and takes a numpy integer count or float width
    table = _argument_table()

    def no_work(*args, **kwargs):
        raise AssertionError("work began before the argument was checked")

    for module, name in ((annulus, "build_graph"), (annulus, "k_colorable"),
                         (annulus, "_radial_strata"), (annulus, "forbidden_pair_draws"),
                         (distgraph, "_circulant_edges"), (hexcolor, "_reach"),
                         (hexcolor, "_strata_violation"), (hexcolor, "forbidden_pair_draws"),
                         (solver, "vertex_table")):
        monkeypatch.setattr(module, name, no_work)
    for entry, arg, low, call, _ in table:
        if low is None:
            bad = (True, 0.5, 1.0, math.nan, math.inf, -math.inf)
            want = r"^need 1 < b < inf, got b="
        else:
            bad = (True, 2.5, 1e5) + tuple(v for v in (low - 1, 0, -1) if v < low)
            want = rf"^need {arg} an integer >= {low}, got "
        for value in bad:
            with pytest.raises(ValueError, match=want):
                call(value)
                pytest.fail(f"{entry} took {arg}={value!r}")
    monkeypatch.undo()
    for entry, arg, low, call, good in table:
        call(np.int64(good) if low is not None else np.float64(good))


def test_the_count_and_width_rules():
    for n, low in ((0, 0), (np.int64(3), 3), (np.uint8(7), 2), (10**30, 1)):
        check_count(n, "n", low)
    for n in (True, np.bool_(True), 2.0, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match=f"^need n an integer >= 0, got {re.escape(repr(n))}$"):
            check_count(n, "n")
    with pytest.raises(ValueError, match="^need k an integer >= 2, got 1$"):
        check_count(1, "k", low=2)
    for b in (1.0 + 2**-52, np.float64(1.3), 2, 1e300):
        check_width(b)
    for b in (1.0, 1, 0.0, -math.inf, math.inf, math.nan, np.float64(math.nan)):
        with pytest.raises(ValueError, match=f"^need 1 < b < inf, got b={b}$"):
            check_width(b)


def test_arguments_that_gave_wrong_answers_are_refused():
    # each of these once gave a wrong answer or a wrong error: a 2.5-color
    # lower bound certified after 0 search nodes, a reach of 1.6394 for
    # p = 1.5, None or range()'s own error for k < 2, answers for a bool
    # taken as 1 and for a width of inf, and a NaN time budget that never ran out
    g = case_graph(1, 1.35, n_override=5)
    calls = [
        ("k", lambda: annulus_verdict(g, 2.5)),
        ("p", lambda: hex_b_max(1.5, 2)),
        ("k", lambda: radial_best(1, 10)),
        ("k", lambda: radial_best(0, 10)),
        ("k", lambda: radial_best(-1, 10)),
        ("annulus_colors", lambda: lift_lower_bound(True)),
        ("k", lambda: KColorQuery(g, 2.5)),
        ("p_max", lambda: sweep_pairs(True, 2)),
        ("case", lambda: lower_bound_config(True, 1.35)),
        ("b", lambda: best_scheme_for_b(math.inf)),
        ("time_budget", lambda: KColorQuery(g, 4, float("nan"))),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=rf"^need .*\b{name}\b"):
            call()
