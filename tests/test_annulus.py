import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from chromaplane import annulus
from chromaplane.annulus import (
    CASE_THRESHOLDS,
    BracketInvalid,
    EpsInstability,
    NonMonotoneDetected,
    RadialScheme,
    annulus_verdict,
    case_graph,
    lift_lower_bound,
    radial_best,
    radial_color,
    radial_max_b,
    radial_max_b_detail,
    radial_max_b_numeric,
    radial_violation_exists,
    annulus_bounds_csv,
    annulus_bounds_rows,
    lower_bound_config,
    threshold_bisect,
)
from chromaplane.distgraph import CircleSpec
from chromaplane.solver import COLORABLE, NOT_COLORABLE, BudgetExhausted


def test_radial_scheme_validation():
    # a scheme is (k, s) alone: no color depends on the annulus' width. The
    # count rules of k and s are in test_geom.py's table; k must divide s
    assert RadialScheme(3, 9).alpha == 2 * math.pi / 9
    with pytest.raises(ValueError, match="^need s a multiple of k, got k=3, s=10$"):
        RadialScheme(3, 10)
    with pytest.raises(ValueError, match="^need s an integer >= 6, got 3$"):
        RadialScheme(3, 3)
    # NaN and infinity are refused, not taken as valid: at b = inf the pair
    # check would draw NaN radii and report a violation
    for b in (0.9, math.nan, math.inf):
        with pytest.raises(ValueError, match="1 < b < inf"):
            radial_violation_exists(4, 12, b, n_pairs=10)


def test_radial_color_examples():
    scheme = RadialScheme(3, 9)
    assert radial_color(scheme, 0.0) == 0
    assert radial_color(scheme, 2 * math.pi / 9 + 1e-9) == 1
    assert radial_color(scheme, 2 * math.pi - 1e-12) == 8 % 3
    with pytest.raises(ValueError):
        radial_color(scheme, 2 * math.pi)


def test_radial_color_sector_structure():
    scheme = RadialScheme(4, 12)
    alpha = scheme.alpha
    for s in range(12):
        mid = (s + 0.5) * alpha
        assert radial_color(scheme, mid) == s % 4
        # consecutive sectors differ
        nxt = ((s + 1) % 12 + 0.5) * alpha
        assert radial_color(scheme, mid) != radial_color(scheme, nxt % (2 * math.pi))


def test_radial_color_is_the_vectorized_sector_rule():
    # radial_color and the sampled checker color through one rule: sector
    # t (angles in [t alpha, (t + 1) alpha)) gets color t mod k
    for k, s in sorted(annulus.RADIAL_SECTORS.items()):
        scheme = RadialScheme(k, s)
        alpha = scheme.alpha
        angles, want = [], []
        for t in range(s):
            for angle, sector in (((t + 0.5) * alpha, t), (t * alpha + 1e-9, t),
                                  ((t * alpha - 1e-9) % (2 * math.pi), t - 1)):
                angles.append(angle)
                want.append(sector % k)
        vectorized = annulus._sector_colors(k, s, np.array(angles))
        scalar = [radial_color(scheme, a) for a in angles]
        assert scalar == vectorized.tolist() == want, (k, s)
        assert all(type(c) is int for c in scalar)


RADIAL_EXPECTED = {
    (3, 9): math.sqrt(2 - 2 * math.sin(math.pi / 18)),
    (4, 12): math.sqrt(2),
    (6, 12): math.sqrt(3),
    (7, 14): 2 * math.cos(math.pi / 7),
    (8, 16): math.sqrt(2 + math.sqrt(2)),
}


@pytest.mark.parametrize("ks,expected", sorted(RADIAL_EXPECTED.items()))
def test_radial_max_b_closed_forms(ks, expected):
    assert radial_max_b(*ks) == pytest.approx(expected, abs=1e-9)


def test_radial_max_b_k5_matches_numeric_not_printed_radical():
    # the five-color bound is the golden ratio; the reciprocal radical
    # sqrt(3/2 - sqrt(5)/2) that sometimes gets quoted is 1/phi
    b = radial_max_b(5, 10)
    assert b == pytest.approx(1.61803, abs=1e-5)
    assert b == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
    assert abs(b - math.sqrt(1.5 - math.sqrt(5) / 2)) > 0.9


def test_radial_max_b_no_valid_b():
    assert radial_max_b(2, 4) is None
    assert radial_max_b(2, 8) is None
    # at (3, 6) the exact d1 and d2 caps are both 1: float noise lifts the
    # computed cap a hair above 1, which is no valid b
    _, caps, _ = radial_max_b_detail(3, 6)
    assert caps["d1"] == pytest.approx(1.0, abs=1e-12)
    assert caps["d2"] == pytest.approx(1.0, abs=1e-12)
    assert radial_max_b(3, 6) is None
    assert radial_best(3, 6) is None
    near_one = [
        (k, s, b)
        for k in range(2, 41)
        for s in range(2 * k, 100 * k + 1, k)
        if (b := radial_max_b(k, s)) is not None and b <= 1.0 + 1e-9
    ]
    assert near_one == []


def test_radial_best():
    s, b = radial_best(5, 40)
    assert b >= 1.61803 - 1e-9
    assert s == 10

    s, b = radial_best(7, 40)
    assert s == 14
    assert b == pytest.approx(2 * math.cos(math.pi / 7), abs=1e-9)

    assert radial_best(2, 8) is None
    # the radial scheme needs at least 2k sectors
    with pytest.raises(ValueError, match="^need s_max an integer >= 6, got 5$"):
        radial_best(3, 5)


def test_radial_best_stops_once_the_gap_cap_cannot_beat_its_best(monkeypatch):
    # the gap cap bounds b and falls as s grows, so the walk ends early and
    # gives a full scan's answer; the scan solved every s, 1,000 at 1000k
    def full_scan(k, s_max):
        best = None
        for s in range(2 * k, s_max + 1, k):
            b = radial_max_b(k, s)
            if b is not None and (best is None or b > best[1]):
                best = (s, b)
        return best

    solved = []
    monkeypatch.setattr(annulus, "radial_max_b", lambda k, s: solved.append(s) or radial_max_b(k, s))
    for k in range(2, 13):
        for s_max in (2 * k, 10 * k, 100 * k, 1000 * k):
            solved.clear()
            assert radial_best(k, s_max) == full_scan(k, s_max), (k, s_max)
            assert len(solved) < 10, (k, s_max, solved)


def test_radial_binding_constraints():
    assert radial_max_b_detail(3, 9)[2] == "gap"
    assert radial_max_b_detail(4, 12)[2] == "gap"
    assert radial_max_b_detail(6, 12)[2] == "d2"
    assert radial_max_b_detail(8, 16)[2] == "d2"


@pytest.mark.parametrize("ks", sorted(RADIAL_EXPECTED) + [(5, 10)])
def test_radial_closed_form_vs_numeric_bisect(ks):
    k, s = ks
    closed = radial_max_b(k, s)
    numeric = radial_max_b_numeric(k, s, n_pairs=100_000)
    assert numeric == pytest.approx(closed, abs=1e-6)


@pytest.mark.parametrize("ks", sorted(RADIAL_EXPECTED) + [(5, 10)])
def test_radial_scheme_valid_below_max(ks):
    k, s = ks
    b = radial_max_b(k, s) - 1e-3
    assert not radial_violation_exists(k, s, b, n_pairs=1_000_000, seed=1)


def _full_matrix_strata_violation(k, s, b):
    # the strata by the whole same-color distance matrix: every ordered pair,
    # its distances by the (n, m, 2) broadcast form
    offs = np.array([1e-9, 1e-7, -1e-9, -1e-7])
    boundary = np.add.outer(np.arange(s) * (annulus.TWO_PI / s), offs).ravel() % annulus.TWO_PI
    ang = np.repeat(boundary, 2)
    rad = np.tile([1.0, b], boundary.size)
    pts = np.column_stack((rad * np.cos(ang), rad * np.sin(ang)))
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    cols = annulus._sector_colors(k, s, ang)
    return bool(np.any((cols[:, None] == cols[None, :]) & annulus.forbidden_distances(d, b)))


def test_radial_strata_decide_as_the_full_same_color_matrix():
    # the same-color pairs i < j, built once, give every verdict the full
    # matrix gives: around each cap of each scheme, and at seeded b across
    # NUMERIC_BRACKET; and so the same bisection bracket
    rng = np.random.default_rng(30)
    schemes = sorted(annulus.RADIAL_SECTORS.items()) + [(2, 4), (3, 6), (4, 8), (5, 15), (2, 10)]
    verdicts = set()
    for k, s in schemes:
        caps = radial_max_b_detail(k, s)[1].values()
        bs = [c + sign * off for c in caps for off in (0.0, 1e-9, 1e-8, 1e-7, 1e-6)
              for sign in (1, -1)]
        bs += rng.uniform(*annulus.NUMERIC_BRACKET, 300).tolist()
        probe = annulus._radial_strata(k, s)
        for b in filter(lambda b: b > 1.0, bs):
            want = _full_matrix_strata_violation(k, s, b)
            assert probe(b) == want, (k, s, b)
            verdicts.add(want)
    assert verdicts == {False, True}
    for k, s in annulus.RADIAL_SECTORS.items():
        def bracket(probe):
            return annulus._bisect(probe, *annulus.NUMERIC_BRACKET, annulus.NUMERIC_TOL, "invalid")

        want = bracket(lambda b: _full_matrix_strata_violation(k, s, b))
        assert bracket(annulus._radial_strata(k, s)) == want, (k, s)


@pytest.mark.parametrize("pairs_only", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("ks", sorted(annulus.RADIAL_SECTORS.items()))
def test_radial_max_b_numeric_is_the_bisection_of_radial_violation_exists(
    ks, seed, pairs_only, monkeypatch
):
    # with the strata on, bisecting the whole check (strata, then 100k pairs)
    # ends where bisecting the strata alone does: the pairs decide no probe.
    # With them off, the b is the random pairs' own, and moves with the seed
    # and every chunk; radial_max_b_numeric then has no violation to bisect
    k, s = ks
    n_pairs = 100_000
    if pairs_only:
        monkeypatch.setattr(annulus, "_radial_strata", lambda k, s: lambda b: False)
        n_pairs = 20_000
        with pytest.raises(BracketInvalid):
            radial_max_b_numeric(k, s, n_pairs, seed)
        # the random pairs' own b moves if any pair's decision moves: the
        # squared radius and the wrapped arctan2 decide every probe as hypot
        # and arctan2 % 2 pi do, on the same draws
        got = _streamed_max_b(k, s, n_pairs, seed)
        assert got == _streamed_max_b(k, s, n_pairs, seed, _reference_violation_exists)
        assert repr(got) == PAIRS_ONLY_MAX_B[ks][seed]
    else:
        b = radial_max_b_numeric(k, s, n_pairs, seed)
        assert b == _streamed_max_b(k, s, n_pairs, seed)


def _reference_violation_exists(k, s, b, n_pairs, seed):
    # radial_violation_exists' random pairs, deciding each second point by
    # hypot and arctan2 % 2 pi
    draws = annulus.forbidden_pair_draws(seed, n_pairs, (1.0, b * b), (0.0, annulus.TWO_PI), b)
    for r1_sq, a1, d, phi in draws:
        r1 = np.sqrt(r1_sq)
        x2 = r1 * np.cos(a1) + d * np.cos(phi)
        y2 = r1 * np.sin(a1) + d * np.sin(phi)
        r2 = np.hypot(x2, y2)
        inside = (r2 >= 1.0) & (r2 <= b)
        a2 = np.arctan2(y2, x2) % annulus.TWO_PI
        same = annulus._sector_colors(k, s, a1) == annulus._sector_colors(k, s, a2)
        if np.any(inside & same):
            return True
    return False


# the bisection of radial_violation_exists(k, s, b, 20_000, seed) with the
# strata off, seeds 0 and 1, on DRAW_CHUNK = 16,384
PAIRS_ONLY_MAX_B = {
    (3, 9): ("1.4191777769625187", "1.3621850600540637"),
    (4, 12): ("1.525902218669653", "1.525920713573694"),
    (5, 10): ("1.7651675757467746", "1.687520786434412"),
    (6, 12): ("1.7790538534820084", "1.8727554703652856"),
    (7, 14): ("1.9562483469545842", "1.8727554703652856"),
    (8, 16): ("1.9153285951316361", "1.9275220083892348"),
}


def _streamed_max_b(k, s, n_pairs, seed, check=radial_violation_exists):
    lo, hi = annulus._bisect(
        lambda b: check(k, s, b, n_pairs, seed),
        *annulus.NUMERIC_BRACKET, annulus.NUMERIC_TOL, "invalid",
    )
    return 0.5 * (lo + hi)


# radial_max_b_numeric(k, s, seed=seed), the same at seeds 0, 1 and 2: the
# strata decide it, so the seed of the random pairs cannot move it
NUMERIC_MAX_B = {
    (3, 9): "1.2855752362310886",
    (4, 12): "1.4142135481536386",
    (5, 10): "1.6180340023934838",
    (6, 12): "1.732050797134638",
    (7, 14): "1.8019377680122854",
    (8, 16): "1.8477590267956252",
}


@pytest.mark.parametrize("ks", sorted(NUMERIC_MAX_B))
def test_radial_max_b_numeric_pinned(ks):
    for seed in (0, 1, 2):
        assert repr(radial_max_b_numeric(*ks, seed=seed)) == NUMERIC_MAX_B[ks]


def test_radial_max_b_numeric_reports_a_pair_the_strata_miss(monkeypatch):
    # strata that accept up to 1.9 leave (4, 12) invalid at the largest b
    # they accept, within NUMERIC_TOL below 1.9, and the one check of the
    # random pairs there says so rather than moving the result
    monkeypatch.setattr(annulus, "_radial_strata", lambda k, s: lambda b: b > 1.9)
    with pytest.raises(RuntimeError, match=r"\(4, 12\) scheme invalid at b = 1\.89999"):
        radial_max_b_numeric(4, 12)


def test_sampled_radial_checks_refuse_a_negative_pair_count(monkeypatch):
    # refused before any draw, not taken as nothing to draw; a count that is
    # not an integer (a bool is not one) gets the same named ValueError
    monkeypatch.setattr(annulus, "forbidden_pair_draws", None)
    for call in (lambda n: radial_violation_exists(4, 12, 1.3, n_pairs=n),
                 lambda n: radial_max_b_numeric(4, 12, n_pairs=n)):
        for n in (-3, 2.5, True, 1e5, np.int64(-1)):
            with pytest.raises(ValueError, match=r"^need n_pairs an integer >= 0, got "):
                call(n)
    monkeypatch.undo()
    # a numpy integer is a count
    assert not radial_violation_exists(4, 12, 1.3, n_pairs=np.int64(1_000))
    b = radial_max_b_numeric(4, 12, n_pairs=np.int32(1_000))
    assert b == pytest.approx(math.sqrt(2), abs=1e-6)
    # 0 pairs leaves the strata, which decide alone
    assert not radial_violation_exists(4, 12, 1.3, n_pairs=0)
    assert radial_violation_exists(4, 12, 1.5, n_pairs=0)
    assert radial_max_b_numeric(4, 12, n_pairs=0) == pytest.approx(math.sqrt(2), abs=1e-6)


def test_radial_max_b_numeric_memory_does_not_grow_with_pairs():
    # 100k pairs drawn one 16,384-column chunk at a time in one reused
    # buffer: a 1.5 MB tracemalloc peak, where 200,000-column chunks took 4.1 MB
    radial_max_b_numeric(8, 16, 10)  # first-call allocations are not the check's
    tracemalloc.start()
    try:
        radial_max_b_numeric(8, 16)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 2.5


def test_radial_max_b_numeric_draws_once(monkeypatch):
    rngs = []
    default_rng = np.random.default_rng

    def spy(seed):
        rngs.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    radial_max_b_numeric(4, 12, seed=3)
    assert rngs == [3]


def test_lower_bound_config_cases():
    eps = 1e-6
    cfg = lower_bound_config(1, 1.29, eps)
    assert cfg.circles == (CircleSpec(1300, 1 + eps), CircleSpec(1300, 1.29 - eps))

    cfg = lower_bound_config(3, 1.72, eps)
    assert cfg.circles == (
        CircleSpec(180, 1 + eps),
        CircleSpec(180, (1 + 1.72) / 2),
        CircleSpec(180, 1.72 - eps),
    )
    assert cfg.circles[1].r == pytest.approx(1.36, abs=1e-12)

    c4 = lower_bound_config(4, 2.05, eps)
    c5 = lower_bound_config(5, 2.05, eps)
    assert c4 == c5

    cfg = lower_bound_config(2, 1.48, eps, n_override=95)
    assert cfg.circles[0].n == 95

    with pytest.raises(ValueError):
        lower_bound_config(6, 1.5, eps)
    with pytest.raises(ValueError):
        lower_bound_config(1, 1.29, 0.5)
    # a point count is an integer: 65.5 is not truncated, True is not 1
    for n in (65.5, True):
        with pytest.raises(ValueError):
            lower_bound_config(1, 1.35, None, n)


def test_case_thresholds_values():
    approx = {1: 1.28599, 2: 1.47145, 3: 1.71433, 4: 1.82843, 5: 2.01176}
    for case, want in approx.items():
        assert CASE_THRESHOLDS[case] == pytest.approx(want, abs=5e-6)


def test_lift_lower_bound():
    assert lift_lower_bound(4) == 7
    assert lift_lower_bound(8) == 11
    for k in range(1, 11):
        assert lift_lower_bound(k) == k + 3
    with pytest.raises(ValueError):
        lift_lower_bound(0)


def test_desk_scale_case1_refutation():
    # 65 divides 1300; at b = 1.35 the shrunken case-1 config already
    # refutes 3 colors, certifying 4 on the annulus and 7 on the plane
    out = annulus_verdict(case_graph(1, 1.35, n_override=65), 4)
    assert out.status == NOT_COLORABLE
    assert lift_lower_bound(4) == 7


def test_annulus_verdict_names_the_callers_k(monkeypatch):
    # k colors are certified by refuting k - 1, so k = 1 would ask for 0
    for k in (1, 0):
        with pytest.raises(ValueError, match=f"^need k an integer >= 2, got {k}$"):
            annulus_verdict(case_graph(1, 1.35, n_override=5), k)
    # threshold_bisect refuses it before its first probe builds a graph
    builds, solves = _spy_solves(monkeypatch)
    for k in (1, 0):
        with pytest.raises(ValueError, match=f"^need k an integer >= 2, got {k}$"):
            threshold_bisect(1, 5, k, 1.25, 1.4, 1e-3)
    assert builds == solves == []


def test_infinite_b_is_refused_as_b():
    # b = inf is named as b, not blamed on the default eps it would give
    with pytest.raises(ValueError, match=r"^need 1 < b < inf, got b=inf$"):
        lower_bound_config(1, math.inf)
    with pytest.raises(BracketInvalid, match=r"^need 1 < b_lo < b_hi < inf, got b_lo=1.25, b_hi=inf$"):
        threshold_bisect(1, 5, 4, 1.25, math.inf, 1e-3)


def test_threshold_bisect_desk_scale_case1():
    b_star = threshold_bisect(1, 65, 4, b_lo=1.25, b_hi=1.4, tol=1e-3)
    # coarser configs are vertex subsets of the full one, so their
    # threshold cannot undercut the full-scale optimum
    assert b_star >= CASE_THRESHOLDS[1] - 1e-9
    assert 1.25 < b_star < 1.4


def test_threshold_bisect_bracket_validation(monkeypatch):
    monkeypatch.setattr(annulus, "EPS_STABILITY_SCALES", (1e-6,))
    with pytest.raises(BracketInvalid):
        threshold_bisect(1, 65, 4, b_lo=1.38, b_hi=1.4, tol=1e-3)
    with pytest.raises(BracketInvalid):
        threshold_bisect(1, 65, 4, b_lo=1.05, b_hi=1.1, tol=1e-3)


def _fake_verdicts(monkeypatch, needs, eps_scales=(1e-6,)):
    """Make each threshold_bisect probe answer needs(b, eps_scale) without
    building or solving a graph, and threshold_bisect run at eps_scales.

    The stub graph of a probe carries needs' answer, and its edge bytes are
    its (b, eps), so probes at one (b, eps) share a verdict as real graphs do.
    """

    def graph(case, b, eps=None, n_override=None):
        return SimpleNamespace(edges=np.array([b, eps]), needs=needs(b, eps / (b - 1.0)))

    def solve(query, seed=0, progress=None):
        return SimpleNamespace(status=NOT_COLORABLE if query.graph.needs else COLORABLE)

    monkeypatch.setattr(annulus, "case_graph", graph)
    monkeypatch.setattr(annulus, "k_colorable", solve)
    monkeypatch.setattr(annulus, "EPS_STABILITY_SCALES", eps_scales)


# binary fractions, so the probes are exact: the bisection of [1.25, 1.5] to
# 2^-6 around a step at 1.4 probes 1.375, 1.4375, 1.40625, 1.390625 and
# returns 1.3984375, then re-checks 1.4140625 and 1.3828125
BRACKET = dict(b_lo=1.25, b_hi=1.5, tol=2.0**-6)


def test_threshold_bisect_detects_non_monotone_verdicts(monkeypatch):
    _fake_verdicts(monkeypatch, lambda b, scale: b >= 1.4 and not 1.41 < b < 1.42)
    with pytest.raises(NonMonotoneDetected):
        threshold_bisect(1, 65, 4, **BRACKET)


def test_threshold_bisect_ends_for_every_tol(monkeypatch):
    probes = []
    _fake_verdicts(monkeypatch, lambda b, scale: probes.append(b) or b >= 1.4)
    # below the float spacing at 1.4 the bracket stops shrinking: the loop ends
    # once the midpoint rounds onto an end, and the re-check steps one float
    for tol in (1e-300, 5e-324, 1e-17):
        probes.clear()
        assert threshold_bisect(1, 65, 4, 1.25, 1.5, tol) == 1.4
        assert len(probes) < 60, (tol, len(probes))
        assert probes[-2:] == [math.nextafter(1.4, 2.0), math.nextafter(1.4, 1.0)]
    # a usual tol re-checks b* +- tol, as before
    probes.clear()
    assert threshold_bisect(1, 65, 4, **BRACKET) == 1.3984375
    assert probes == [1.25, 1.5, 1.375, 1.4375, 1.40625, 1.390625, 1.4140625, 1.3828125]
    # tol must be > 0, NaN included; refused before any probe
    for tol in (0.0, -1.0, math.nan):
        probes.clear()
        with pytest.raises(ValueError, match="tol"):
            threshold_bisect(1, 65, 4, 1.25, 1.5, tol)
        assert probes == []


def test_radial_max_b_numeric_ends_for_every_tol(monkeypatch):
    probes = []

    # each bisection probe is one call of the _radial_strata probe; the pairs
    # check of the accepted end (n_pairs = 0 here) does not probe it again
    def fake(b):
        probes.append(b)
        return b > 1.5

    monkeypatch.setattr(annulus, "_radial_strata", lambda k, s: fake)
    bracket, default_tol = annulus.NUMERIC_BRACKET, annulus.NUMERIC_TOL
    # probes 1.5, 1.625, 1.5625, 1.53125, 1.515625 after the bracket ends
    monkeypatch.setattr(annulus, "NUMERIC_BRACKET", (1.25, 1.75))
    monkeypatch.setattr(annulus, "NUMERIC_TOL", 2.0**-6)
    assert radial_max_b_numeric(4, 12, n_pairs=0) == 1.5078125
    assert probes == [1.25, 1.75, 1.5, 1.625, 1.5625, 1.53125, 1.515625]
    monkeypatch.setattr(annulus, "NUMERIC_BRACKET", bracket)
    for tol in (1e-300, 5e-324):
        probes.clear()
        monkeypatch.setattr(annulus, "NUMERIC_TOL", tol)
        assert radial_max_b_numeric(4, 12, n_pairs=0) in (1.5, math.nextafter(1.5, 2.0))
        assert len(probes) < 60
        assert probes.count(1.5) == 1
    for tol in (0.0, -1.0, math.nan):
        probes.clear()
        monkeypatch.setattr(annulus, "NUMERIC_TOL", tol)
        with pytest.raises(ValueError, match="tol"):
            radial_max_b_numeric(4, 12)
        assert probes == []
    monkeypatch.setattr(annulus, "NUMERIC_TOL", default_tol)
    monkeypatch.setattr(annulus, "NUMERIC_BRACKET", (1.6, 2.0))
    with pytest.raises(BracketInvalid):
        radial_max_b_numeric(4, 12)
    monkeypatch.setattr(annulus, "NUMERIC_BRACKET", (1.1, 1.2))
    with pytest.raises(BracketInvalid):
        radial_max_b_numeric(4, 12)


def test_threshold_bisect_detects_eps_instability(monkeypatch):
    def needs(b, scale):
        return b >= (1.4 if scale < 1e-4 else 1.3)

    _fake_verdicts(monkeypatch, needs, (1e-6, 1e-7))
    assert threshold_bisect(1, 65, 4, **BRACKET) == 1.3984375
    _fake_verdicts(monkeypatch, needs, (1e-6, 1e-3))
    with pytest.raises(EpsInstability):
        threshold_bisect(1, 65, 4, **BRACKET)


def reference_threshold_bisect(case, n_override, k, b_lo, b_hi, tol, time_budget=None, seed=0):
    """threshold_bisect's per-probe loop, one annulus_verdict per probe: the oracle."""
    if not 1.0 < b_lo < b_hi < math.inf:
        raise BracketInvalid(f"need 1 < b_lo < b_hi < inf, got b_lo={b_lo}, b_hi={b_hi}")

    def needs(b, scale):
        g = case_graph(case, b, (b - 1.0) * scale, n_override)
        out = annulus_verdict(g, k, time_budget=time_budget, seed=seed)
        return out.status == NOT_COLORABLE

    results = []
    for scale in annulus.EPS_STABILITY_SCALES:
        lo, hi = annulus._bisect(lambda b: needs(b, scale), b_lo, b_hi, tol, "needs k")
        b_star = 0.5 * (lo + hi)
        up = max(b_star + tol, math.nextafter(b_star, math.inf))
        down = min(b_star - tol, math.nextafter(b_star, -math.inf))
        if not needs(up, scale) or needs(down, scale):
            raise NonMonotoneDetected(b_star)
        results.append(b_star)
    if max(results) - min(results) > 1e-6:
        raise EpsInstability(results)
    return results[annulus.EPS_STABILITY_SCALES.index(annulus.DEFAULT_EPS_SCALE)]


def _spy_solves(monkeypatch):
    """Record each threshold_bisect probe's edge bytes and each solve's query."""
    builds, solves = [], []
    build, solve = annulus.case_graph, annulus.k_colorable

    def graph(*args):
        g = build(*args)
        builds.append(g.edges.tobytes())
        return g

    def spy(query, seed=0, progress=None):
        solves.append(query)
        return solve(query, seed=seed, progress=progress)

    monkeypatch.setattr(annulus, "case_graph", graph)
    monkeypatch.setattr(annulus, "k_colorable", spy)
    return builds, solves


def test_threshold_bisect_solves_each_distinct_graph_once(monkeypatch):
    builds, solves = _spy_solves(monkeypatch)
    assert threshold_bisect(1, 65, 4, 1.25, 1.4, 1e-3, time_budget=30.0) == 1.32646484375
    assert len(builds) == 36
    assert len(set(builds)) == 5
    assert len(solves) == 5
    assert len({q.graph.edges.tobytes() for q in solves}) == 5
    assert all(q.k == 3 and q.time_budget == 30.0 for q in solves)


def test_threshold_bisect_table_lives_for_one_call(monkeypatch):
    # back-to-back calls each solve every distinct graph: nothing carries over
    builds, solves = _spy_solves(monkeypatch)
    counts = []
    for _ in range(2):
        builds.clear()
        solves.clear()
        assert threshold_bisect(1, 65, 4, 1.25, 1.4, 1e-3) == 1.32646484375
        counts.append((len(builds), len(solves)))
    assert counts == [(36, 5), (36, 5)]


# (case, n, k, b_lo, b_hi, tol) and the per-probe loop's repr(b*) or exception
THRESHOLD_INSTANCES = [
    ((1, 65, 4, 1.25, 1.4, 1e-3), "1.32646484375"),
    ((2, 38, 5, 1.3, 1.6, 1e-3), "1.57802734375"),
    ((3, 18, 6, 1.5, 1.9, 1e-3), "1.879296875"),
    ((1, 26, 4, 1.25, 1.45, 1e-3), "1.409765625"),
    ((2, 19, 5, 1.3, 1.6, 1e-3), BracketInvalid),
    ((1, 65, 4, 1.3, 1.4, 1e-9), EpsInstability),
]


def _outcome(bisect, args):
    try:
        return repr(bisect(*args))
    except annulus.InstanceError as exc:
        return type(exc)


@pytest.mark.parametrize("args, want", THRESHOLD_INSTANCES,
                         ids=["-".join(map(str, args)) for args, _ in THRESHOLD_INSTANCES])
def test_threshold_bisect_matches_the_per_probe_loop(args, want):
    assert _outcome(reference_threshold_bisect, args) == want
    assert _outcome(threshold_bisect, args) == want


def test_threshold_bisect_keys_verdicts_by_edges_not_b(monkeypatch):
    # every b in [1.375, 1.4375) gets one edge array, so the verdict solved at
    # 1.375 (false) answers 1.40625, 1.421875 and 1.4140625 too, though needs
    # says true at the first two; b* moves from the step at 1.4 (1.3984375
    # with a graph per b) to the bucket's end
    probes = []

    def graph(case, b, eps=None, n_override=None):
        probes.append(b)
        bucket = 0 if b < 1.375 else 1 if b < 1.4375 else 2
        return SimpleNamespace(edges=np.array([bucket]), needs=b >= 1.4)

    solves = []

    def solve(query, seed=0, progress=None):
        solves.append(query.graph.needs)
        return SimpleNamespace(status=NOT_COLORABLE if query.graph.needs else COLORABLE)

    monkeypatch.setattr(annulus, "case_graph", graph)
    monkeypatch.setattr(annulus, "k_colorable", solve)
    monkeypatch.setattr(annulus, "EPS_STABILITY_SCALES", (1e-6,))
    assert threshold_bisect(1, 65, 4, **BRACKET) == 1.4296875
    assert probes == [1.25, 1.5, 1.375, 1.4375, 1.40625, 1.421875, 1.4453125, 1.4140625]
    assert solves == [False, True, False]


def test_threshold_bisect_stores_no_budget_cut(monkeypatch):
    # a cut raises out of the call; the next call solves that graph again
    builds, solves = _spy_solves(monkeypatch)
    solve = annulus.k_colorable

    def cut_once(query, seed=0, progress=None):
        if len(solves) == 2:
            solves.append(query)
            raise BudgetExhausted(0, 0.0)
        return solve(query, seed=seed, progress=progress)

    monkeypatch.setattr(annulus, "k_colorable", cut_once)
    with pytest.raises(BudgetExhausted):
        threshold_bisect(1, 65, 4, 1.25, 1.4, 1e-3)
    assert len(solves) == 3
    assert threshold_bisect(1, 65, 4, 1.25, 1.4, 1e-3) == 1.32646484375
    assert len(solves) == 3 + 5


def test_annulus_bounds_rows_structure():
    rows = annulus_bounds_rows()
    assert len(rows) == 10
    assert rows[0].b_lo == 1.0
    assert rows[-1].b_hi == pytest.approx(math.sqrt(2 + math.sqrt(2)), abs=1e-12)
    for row in rows:
        assert row.lower <= row.upper
    intervals = [(r.b_lo, r.b_hi) for r in rows]
    for (lo1, hi1), (lo2, _) in zip(intervals, intervals[1:]):
        assert hi1 == lo2


def test_annulus_bounds_examples():
    def rows_holding(b):
        return [(row.lower, row.upper) for row in annulus_bounds_rows() if row.b_lo < b <= row.b_hi]

    assert rows_holding(1.40) == [(4, 4)]
    assert rows_holding(1.45) == [(4, 5)]
    assert rows_holding(1.83) == [(7, 8)]
    assert rows_holding(1.81) == [(6, 8)]
    assert rows_holding(1.1) == [(3, 3)]
    # outside the tabulated range
    assert rows_holding(1.9) == []
    assert rows_holding(0.9) == []


def test_annulus_bounds_csv():
    text = annulus_bounds_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "b_lo,b_hi,lower,upper,source"
    assert len(lines) == 11
    assert any("thm5-case-1" in ln for ln in lines)
    assert any("radial-8-16" in ln for ln in lines)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "bf57528214b69d7dcaca0c5ad4ccbcd4c7d5a9d7561d80bc539a80aa29c4464f"


def test_case_graph_matches_config():
    g = case_graph(2, 1.48, n_override=95)
    assert g.n == 190
    assert g.b == 1.48
