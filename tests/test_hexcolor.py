import functools
import math
import random
import tracemalloc

import numpy as np
import pytest

from chromaplane import hexcolor
from chromaplane.geom import DRAW_CHUNK, forbidden_pair_draws
from chromaplane.hexcolor import (
    B_TOL,
    BASE_TILE,
    HexScheme,
    S1,
    S2,
    best_scheme_for_b,
    color_count,
    color_of_tile,
    enumerated_color_count,
    min_colors_curve,
    hex_b_max,
    min_same_color_distance,
    named_family,
    point_to_tile,
    sweep_pairs,
    pareto_table,
    pareto_table_csv,
    tile_center,
    verify_scheme_sampled,
)

SQRT3 = math.sqrt(3)

# Pareto table for the p <= q <= 10 sweep. Closed forms cross-checked
# against dense boundary sampling of the tile pairs; the (3,5), (1,8) and
# (1,9) rows are cheaper equal-reach schemes that older tabulations of
# this family missed (they listed (5,5) with 75 colors at 13/2 and (4,7)
# with 93 colors at sqrt(217)/2 instead).
EXPECTED_PARETO = [
    (math.sqrt(7) / 2, 7, 1, 2),
    (math.sqrt(3), 9, 0, 3),
    (2.0, 12, 2, 2),
    (math.sqrt(19) / 2, 13, 1, 3),
    (3 * math.sqrt(3) / 2, 16, 0, 4),
    (math.sqrt(31) / 2, 19, 2, 3),
    (math.sqrt(37) / 2, 21, 1, 4),
    (2 * math.sqrt(3), 25, 0, 5),
    (3.5, 27, 3, 3),
    (math.sqrt(13), 28, 2, 4),
    (math.sqrt(61) / 2, 31, 1, 5),
    (5 * math.sqrt(3) / 2, 36, 0, 6),
    (math.sqrt(79) / 2, 39, 2, 5),
    (math.sqrt(91) / 2, 43, 1, 6),
    (5.0, 48, 4, 4),
    (math.sqrt(103) / 2, 49, 3, 5),
    (3 * math.sqrt(3), 49, 0, 7),
    (2 * math.sqrt(7), 52, 2, 6),
    (math.sqrt(127) / 2, 57, 1, 7),
    (math.sqrt(133) / 2, 61, 4, 5),
    (math.sqrt(139) / 2, 63, 3, 6),
    (7 * math.sqrt(3) / 2, 64, 0, 8),
    (math.sqrt(151) / 2, 67, 2, 7),
    (6.5, 73, 1, 8),
    (math.sqrt(43), 76, 4, 6),
    (math.sqrt(181) / 2, 79, 3, 7),
    (4 * math.sqrt(3), 81, 0, 9),
    (7.0, 84, 2, 8),
    (math.sqrt(211) / 2, 91, 5, 6),
    (math.sqrt(217) / 2, 91, 1, 9),
    (math.sqrt(229) / 2, 97, 3, 8),
    (9 * math.sqrt(3) / 2, 100, 0, 10),
    (math.sqrt(247) / 2, 103, 2, 9),
    (8.0, 108, 6, 6),
    (math.sqrt(259) / 2, 109, 5, 7),
    (math.sqrt(271) / 2, 111, 1, 10),
    (math.sqrt(283) / 2, 117, 3, 9),
    (2 * math.sqrt(19), 124, 2, 10),
    (math.sqrt(307) / 2, 127, 6, 7),
    (math.sqrt(313) / 2, 129, 5, 8),
    (5 * math.sqrt(13) / 2, 133, 4, 9),
    (7 * math.sqrt(7) / 2, 139, 3, 10),
    (9.5, 147, 7, 7),
    (math.sqrt(91), 148, 6, 8),
    (math.sqrt(373) / 2, 151, 5, 9),
    (math.sqrt(97), 156, 4, 10),
    (math.sqrt(421) / 2, 169, 7, 8),
    (math.sqrt(427) / 2, 171, 6, 9),
    (math.sqrt(439) / 2, 175, 5, 10),
    (11.0, 192, 8, 8),
    (math.sqrt(487) / 2, 193, 7, 9),
    (2 * math.sqrt(31), 196, 6, 10),
    (math.sqrt(553) / 2, 217, 8, 9),
    (math.sqrt(559) / 2, 219, 7, 10),
    (12.5, 243, 9, 9),
    (math.sqrt(157), 244, 8, 10),
    (math.sqrt(703) / 2, 271, 9, 10),
    (14.0, 300, 10, 10),
]


def test_lattice_constants():
    assert S1 == pytest.approx((SQRT3 / 2, 0.0), abs=1e-15)
    assert S2 == pytest.approx((SQRT3 / 4, -0.75), abs=1e-15)
    vs = BASE_TILE
    assert len(vs) == 6
    diam = max(math.dist(a, b) for a in vs for b in vs)
    assert diam == pytest.approx(1.0, abs=1e-12)
    # two vertical sides
    xs = sorted(v.x for v in vs)
    assert xs[0] == pytest.approx(xs[1], abs=1e-12)
    assert xs[-1] == pytest.approx(xs[-2], abs=1e-12)
    assert xs[-1] - xs[0] == pytest.approx(SQRT3 / 2, abs=1e-12)


def test_tile_center_examples():
    assert tile_center(0, 0) == (0.0, 0.0)
    assert tile_center(1, 0) == pytest.approx((SQRT3 / 2, 0.0), abs=1e-15)
    assert tile_center(0, 2) == pytest.approx((SQRT3 / 2, -1.5), abs=1e-15)


def test_point_to_tile_examples():
    assert point_to_tile((0.0, 0.0)) == (0, 0)
    assert point_to_tile((SQRT3 / 2, 0.0)) == (1, 0)


def test_point_to_tile_rejects_coordinates_without_a_tile():
    # no int64 tile index holds these; a cast would make one up
    for bad in (math.nan, math.inf, -math.inf, 1e300, -1e300, 2.0**62):
        for p in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                point_to_tile(p)
    # just inside the limit, a point on the i axis still gets its own tile
    i, j = point_to_tile((4e18, 0.0))
    assert j == 0 and i == pytest.approx(4e18 / (SQRT3 / 2), rel=1e-15)


def test_point_to_tile_partition():
    from chromaplane.hexcolor import _tile_indices_vectorized

    rng = np.random.default_rng(0)
    pts = rng.uniform(-6, 6, size=(100_000, 2))
    perturbed = np.concatenate([pts, pts + 1e-9, pts - 1e-9])
    ii, jj = _tile_indices_vectorized(perturbed[:, 0], perturbed[:, 1])
    cx = ii * S1.x + jj * S2.x
    cy = ii * S1.y + jj * S2.y
    d2 = (perturbed[:, 0] - cx) ** 2 + (perturbed[:, 1] - cy) ** 2
    # Voronoi owner: never farther than the circumradius
    assert np.all(d2 <= 0.25 + 1e-8)

    # scalar path agrees with the vectorized one and is stable on repeats
    for x, y in pts[:500]:
        i, j = point_to_tile((x, y))
        assert point_to_tile((x, y)) == (i, j)
        c = tile_center(i, j)
        assert (x - c.x) ** 2 + (y - c.y) ** 2 <= 0.25 + 1e-9
    si, sj = _tile_indices_vectorized(pts[:500, 0], pts[:500, 1])
    for idx, (x, y) in enumerate(pts[:500]):
        assert point_to_tile((x, y)) == (si[idx], sj[idx])

    # the four-corner lookup is the nearest center over a whole window,
    # ties included; |i|, |j| <= 8 here, inside the reference's window
    near = rng.uniform(-4, 4, size=(1_000, 2))
    near = np.concatenate([near, near + 1e-9, near - 1e-9])
    ii, jj = _tile_indices_vectorized(near[:, 0], near[:, 1])
    for (x, y), i, j in zip(near, ii, jj):
        assert _reference_nearest_tile(x, y)[1:] == (i, j), (x, y)


def _reference_nearest_tile(x, y, window=9):
    """Nearest tile center over a window, exact ties to the smallest (i, j)."""
    best = None
    for i in range(-window, window + 1):
        for j in range(-window, window + 1):
            cx = i * S1.x + j * S2.x
            cy = i * S1.y + j * S2.y
            key = ((x - cx) * (x - cx) + (y - cy) * (y - cy), i, j)
            if best is None or key < best:
                best = key
    return best


def test_point_to_tile_ties_at_vertices_and_edge_midpoints():
    # every vertex and edge midpoint lies on the boundary of two or three
    # tiles; a third of them are exact float ties between centers
    ties, pts = 0, []
    for i in range(-4, 5):
        for j in range(-4, 5):
            c = tile_center(i, j)
            for k in range(6):
                a, b = BASE_TILE[k], BASE_TILE[(k + 1) % 6]
                for x, y in ((c.x + a.x, c.y + a.y),
                             (c.x + (a.x + b.x) / 2, c.y + (a.y + b.y) / 2)):
                    d2, ri, rj = _reference_nearest_tile(x, y)
                    assert point_to_tile((x, y)) == (ri, rj), (x, y)
                    pts.append((x, y))
                    tied = sum(
                        (x - cx) * (x - cx) + (y - cy) * (y - cy) == d2
                        for cx, cy in (tile_center(ri + di, rj + dj)
                                       for di in (-1, 0, 1) for dj in (-1, 0, 1))
                    )
                    ties += tied > 1
    assert ties > 100
    xs, ys = np.array(pts).T
    _assert_copyto_rule(xs, ys)


def _copyto_tile_indices(xs, ys):
    """The four-corner lookup with int64 corners, tried in (i, j) order: a
    strictly closer corner replaces the best (np.copyto where closer)."""
    j0 = -ys / 0.75
    i = np.floor((xs - j0 * S2.x) / S1.x).astype(np.int64)
    j = np.floor(j0).astype(np.int64)
    best_d2 = np.full(xs.shape, np.inf)
    corner = np.zeros(xs.shape, dtype=np.int8)  # 2 * di + dj of the best corner
    for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
        cx, cy = tile_center(i + di, j + dj)
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        closer = d2 < best_d2
        np.copyto(best_d2, d2, where=closer)
        np.copyto(corner, 2 * di + dj, where=closer)
    return i + (corner >> 1), j + (corner & 1)


def _assert_copyto_rule(xs, ys):
    ii, jj = hexcolor._tile_indices_vectorized(xs, ys)
    ri, rj = _copyto_tile_indices(xs, ys)
    assert ii.dtype == jj.dtype == np.int64
    assert np.array_equal(ii, ri) and np.array_equal(jj, rj)


@pytest.mark.parametrize("scale", [1.0, 6.0, 40.0, 1e6, 1e15, 4e18])
def test_tile_lookup_is_the_copyto_rule(scale):
    # the lookup picks the corner the copyto rule picks, for every point;
    # from 1e15 on the float corners round
    pts = np.random.default_rng(3).uniform(-scale, scale, size=(2, 500_000))
    _assert_copyto_rule(*pts)


def test_point_to_tile_roundtrip():
    for i in range(-4, 5):
        for j in range(-4, 5):
            assert point_to_tile(tile_center(i, j)) == (i, j)


def test_scheme_validation():
    with pytest.raises(ValueError):
        HexScheme(0, 0)
    with pytest.raises(ValueError):
        HexScheme(-1, 2)
    assert color_count(HexScheme(1, 0)) == 1
    for p_max, q_max in ((-1, 3), (3, -1)):
        with pytest.raises(ValueError, match="bounds must be >= 0"):
            sweep_pairs(p_max, q_max)


def test_generator_vectors():
    for p, q in sweep_pairs(10, 10):
        s = HexScheme(p, q)
        n = color_count(s)
        lv = math.hypot(*s.v)
        lvb = math.hypot(*s.vbar)
        assert lv == pytest.approx(math.sqrt(3 * n) / 2, abs=1e-12)
        assert lvb == pytest.approx(math.sqrt(3 * n) / 2, abs=1e-12)
        cosang = (s.v.x * s.vbar.x + s.v.y * s.vbar.y) / (lv * lvb)
        assert cosang == pytest.approx(0.5, abs=1e-12)


def test_color_of_tile_examples():
    s = HexScheme(1, 2)
    assert color_of_tile(s, 0, 0) == color_of_tile(s, 1, 2) == color_of_tile(s, 3, -1)
    assert color_of_tile(s, 0, 0) != color_of_tile(s, 1, 0)
    assert type(color_of_tile(s, 3, -1)) is int
    assert type(color_of_tile(HexScheme(2, 4), np.int64(3), np.int64(-1))) is int

    s = HexScheme(0, 3)
    seen = {
        (i % 3, j % 3): color_of_tile(s, i, j) for i in range(-6, 6) for j in range(-6, 6)
    }
    assert len(set(seen.values())) == 9
    for i in range(-6, 6):
        for j in range(-6, 6):
            assert color_of_tile(s, i, j) == seen[(i % 3, j % 3)]


def test_color_classes_are_cosets():
    rng = random.Random(4)
    for p, q in [(1, 2), (2, 3), (0, 4), (3, 3)]:
        s = HexScheme(p, q)
        for _ in range(50):
            i = rng.randint(-20, 20)
            j = rng.randint(-20, 20)
            k = rng.randint(-3, 3)
            l = rng.randint(-3, 3)
            i2 = i + k * p + l * (p + q)
            j2 = j + k * q - l * p
            assert color_of_tile(s, i, j) == color_of_tile(s, i2, j2)


def test_color_is_the_coset_partition():
    # the gcd normal form against the two-form sublattice membership key
    for p in range(16):
        for q in range(16):
            if (p, q) == (0, 0):
                continue
            n = p * p + p * q + q * q
            w = 4 * (p + q) + 3
            i, j = np.divmod(np.arange(4 * w * w), 2 * w)
            i, j = i - w, j - w
            colors = hexcolor._color(p, q, i, j)
            keys = hexcolor._coset_key(p, q, n, i, j)
            assert np.array_equal(np.unique(colors), np.arange(n)), (p, q)
            assert np.unique(keys).size == n, (p, q)
            assert np.unique(colors * n * n + keys).size == n, (p, q)
            assert colors[(i == 0) & (j == 0)].tolist() == [0]


def test_color_count_examples():
    assert color_count(HexScheme(1, 2)) == 7
    assert color_count(HexScheme(3, 3)) == 27
    assert color_count(HexScheme(1, 0)) == 1


def test_color_count_lemma_enumeration():
    for p, q in sweep_pairs(10, 10):
        assert enumerated_color_count(p, q) == p * p + p * q + q * q


def test_hex_b_max_examples():
    assert hex_b_max(1, 2) == pytest.approx(math.sqrt(7) / 2, abs=1e-9)
    assert hex_b_max(2, 2) == pytest.approx(2.0, abs=1e-9)
    assert hex_b_max(0, 3) == pytest.approx(math.sqrt(3), abs=1e-9)
    assert hex_b_max(2, 4) == pytest.approx(math.sqrt(13), abs=1e-9)


def test_hex_b_max_no_valid_b():
    assert hex_b_max(1, 0) is None  # single color
    assert hex_b_max(1, 1) is None  # same-color tiles too close
    assert hex_b_max(0, 2) is None
    assert min_same_color_distance(1, 1) == pytest.approx(0.5, abs=1e-9)
    assert min_same_color_distance(2, 0) == pytest.approx(SQRT3 / 2, abs=1e-9)


def test_min_same_color_distance_matches_ring_walk():
    # the six nearest same-color tiles against every offset out to 2|v| + 1
    for p in range(31):
        for q in range(31):
            if (p, q) == (0, 0):
                continue
            s = HexScheme(p, q)
            limit = 2.0 * math.hypot(*s.v) + 1.0
            offsets = hexcolor._same_color_offsets(s, limit)
            want = min(hexcolor._tile_gap(ox, oy) for ox, oy in offsets)
            assert min_same_color_distance(p, q) == want, (p, q)


def test_same_color_offsets_box_misses_nothing():
    # every offset a brute-force box two rings wider finds within limit, at
    # limit = hex_b_max + 1 (min_same_color_distance where hex_b_max is None)
    # and one ring further
    for p, q in sweep_pairs(10, 10):
        s = HexScheme(p, q)
        v, vb = s.v, s.vbar
        ring = math.hypot(*v) * SQRT3 / 2
        for limit in (min_same_color_distance(p, q) + 1, min_same_color_distance(p, q) + 1 + ring):
            m = int(limit // ring) + 2
            box = [(k * v.x + l * vb.x, k * v.y + l * vb.y)
                   for k in range(-m, m + 1) for l in range(-m, m + 1) if (k, l) != (0, 0)]
            want = sorted(o for o in box if math.hypot(*o) <= limit)
            assert sorted(hexcolor._same_color_offsets(s, limit)) == want, (p, q, limit)


def test_hex_b_max_symmetry():
    for p, q in [(1, 2), (2, 3), (1, 8), (3, 5), (0, 3)]:
        a = hex_b_max(p, q)
        b = hex_b_max(q, p)
        assert a == pytest.approx(b, abs=1e-12)


def test_center_distance_sandwich():
    for p, q in sweep_pairs(10, 10):
        b = hex_b_max(p, q)
        if b is None:
            continue
        center = math.sqrt(3 * (p * p + p * q + q * q)) / 2
        assert center - 1 - 1e-9 <= b <= center + 1e-9


def test_pareto_table_full_sweep():
    rows = pareto_table(10, 10)
    assert len(rows) == len(EXPECTED_PARETO)
    got = {(r.n_colors, r.p, r.q) for r in rows}
    want = {(n, p, q) for _, n, p, q in EXPECTED_PARETO}
    assert got == want
    by_pq = {(r.p, r.q): r.b for r in rows}
    for b_expr, _, p, q in EXPECTED_PARETO:
        assert by_pq[(p, q)] == pytest.approx(b_expr, abs=1e-6)


def test_pareto_table_equal_reach_dominated_schemes():
    # the schemes older tabulations listed at these two reaches
    assert hex_b_max(5, 5) == pytest.approx(6.5, abs=1e-6)
    assert hex_b_max(4, 7) == pytest.approx(math.sqrt(217) / 2, abs=1e-6)
    # strictly dominated: same reach, more colors
    assert hex_b_max(1, 8) == pytest.approx(6.5, abs=1e-6)
    assert hex_b_max(1, 9) == pytest.approx(math.sqrt(217) / 2, abs=1e-6)


def test_pareto_table_small_sweep():
    rows = pareto_table(2, 2)
    assert [(r.p, r.q) for r in rows] == [(1, 2), (2, 2)]
    assert pareto_table(0, 0) == []


def test_pareto_table_csv_format():
    text = pareto_table_csv(pareto_table(2, 2))
    lines = text.strip().splitlines()
    assert lines[0] == "b,n_colors,p,q"
    assert lines[1] == "1.32287566,7,1,2"
    assert lines[2] == "2,12,2,2"


def test_best_scheme_for_b_examples():
    assert best_scheme_for_b(1.3) == (1, 2, 7)
    assert best_scheme_for_b(1.5) == (0, 3, 9)
    assert best_scheme_for_b(2.0) == (2, 2, 12)
    assert best_scheme_for_b(100.0) is None
    for b in (0.5, math.nan):
        with pytest.raises(ValueError):
            best_scheme_for_b(b)


def test_min_colors_curve():
    rows = min_colors_curve([1.01, 2.0, 14.0, 15.0])
    assert rows[0][1] == 7
    assert rows[1][1] == 12
    assert rows[2][1] == 300
    assert rows[3][1] is None


def _reference_fewest_colors(reach, b, search_max=10):
    """Per-b double loop over the (p, q) sweep: smallest (N, p, q) covering b."""
    best = None
    for q in range(search_max + 1):
        for p in range(q + 1):
            if p == 0 and q == 0:
                continue
            r = reach[(p, q)]
            if r is None or r < b - B_TOL:
                continue
            key = (p * p + p * q + q * q, p, q)
            if best is None or key < best:
                best = key
    return best


def test_min_colors_selection_matches_reference(monkeypatch):
    reach = {(p, q): hex_b_max(p, q) for p, q in sweep_pairs(10, 10)}
    # the selection under test sees the same reaches without recomputing them
    monkeypatch.setattr(hexcolor, "hex_b_max", lambda p, q: reach[(p, q)])

    grid = list(np.arange(1.3, 14 + 0.05, 0.1))  # the README grid
    covered = [r + B_TOL / 2 for r in reach.values() if r is not None]
    uncovered = [r + 2 * B_TOL for r in reach.values() if r is not None]
    points = grid + [r for r in reach.values() if r is not None] + covered + uncovered
    want = [_reference_fewest_colors(reach, b) for b in points]
    # the B_TOL edge decides some answers
    assert any(_reference_fewest_colors(reach, c) != _reference_fewest_colors(reach, u)
               for c, u in zip(covered, uncovered))

    assert min_colors_curve(points) == [(b, None if w is None else w[0])
                                        for b, w in zip(points, want)]
    for b, w in zip(points, want):
        assert best_scheme_for_b(b) == (None if w is None else (w[1], w[2], w[0]))


def _swept_rows(search_max, q_max=None):
    """The swept rows with a reach, in sweep order, built here from hex_b_max."""
    rows = [hexcolor.SchemeRow(hexcolor.hex_b_max(p, q), p * p + p * q + q * q, p, q)
            for p, q in sweep_pairs(search_max, search_max if q_max is None else q_max)]
    return [r for r in rows if r.b is not None]


def _all_pairs_pareto(rows):
    """The dominance rule as an all-pairs filter: drop a row when another row
    reaches at least its b - B_TOL with strictly fewer colors."""
    return sorted(r for r in rows
                  if not any(o.b >= r.b - B_TOL and o.n_colors < r.n_colors for o in rows))


def _full_scan_fewest(rows, b):
    """The dominance rule as a full scan: smallest (n_colors, p, q) reaching b - B_TOL."""
    reach = b - B_TOL
    return min(((r.n_colors, r.p, r.q) for r in rows if r.b >= reach), default=None)


def test_sorted_sweep_matches_all_pairs_rule(monkeypatch):
    # each (p, q) reach is computed once, for the code under test and the reference alike
    monkeypatch.setattr(hexcolor, "hex_b_max", functools.cache(hex_b_max))
    for m in list(range(31)) + [60]:
        for p_max, q_max in ((m, m), (m, m // 2 + 1), (m // 3, m)):
            assert pareto_table(p_max, q_max) == _all_pairs_pareto(_swept_rows(p_max, q_max))

    offsets = (0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9, 1e-6, -1e-6)
    for search_max in range(31):
        rows = _swept_rows(search_max)
        points = [r.b + d for r in rows for d in offsets]
        want = [_full_scan_fewest(rows, b) for b in points]
        assert min_colors_curve(points, search_max) == [(b, w and w[0]) for b, w in zip(points, want)]
        if search_max == 10:
            # the B_TOL edge decides some answers: b + 5e-10 is covered where b + 2e-9 is not
            answers = dict(zip(points, want))
            assert any(answers[r.b + 5e-10] != answers[r.b + 2e-9] for r in rows)
            for b, w in zip(points, want):
                assert best_scheme_for_b(b) == (w and (w[1], w[2], w[0]))


def test_named_families():
    s = named_family("exoo", 1)
    assert (s.p, s.q) == (1, 2)
    assert color_count(s) == 7
    assert hexcolor._family("exoo", 1)[1] == pytest.approx(math.sqrt(7) / 2, abs=1e-12)
    assert hex_b_max(1, 2) == pytest.approx(hexcolor._family("exoo", 1)[1], abs=1e-9)

    s = named_family("lonc", 2)
    assert (s.p, s.q) == (2, 2)
    assert color_count(s) == 12
    assert hexcolor._family("lonc", 2)[1] == 2
    assert hex_b_max(2, 2) == pytest.approx(2, abs=1e-9)

    s = named_family("gjssw", 3)
    assert (s.p, s.q) == (3, 0)
    assert color_count(s) == 9
    assert hexcolor._family("gjssw", 3)[1] == pytest.approx(math.sqrt(3), abs=1e-12)
    assert hex_b_max(3, 0) == pytest.approx(math.sqrt(3), abs=1e-9)

    with pytest.raises(ValueError):
        named_family("exoo", 0)
    with pytest.raises(ValueError):
        named_family("nosuch", 1)


def test_named_family_reach_meets_bound():
    for family in ("exoo", "lonc", "gjssw"):
        for r in range(1, 9):
            s = named_family(family, r)
            bound = hexcolor._family(family, r)[1]
            reach = min_same_color_distance(s.p, s.q)
            assert reach >= bound - 1e-9
            if reach - bound > 1e-6:
                print(f"note: {family} r={r} reach {reach:.9f} exceeds bound {bound:.9f}")


def test_verify_scheme_sampled():
    s = HexScheme(1, 2)
    assert verify_scheme_sampled(s, 1.3, samples=100_000)
    assert not verify_scheme_sampled(s, 1.34, samples=100_000)
    assert verify_scheme_sampled(HexScheme(0, 3), 1.73, samples=100_000)
    # deterministic for a fixed seed
    a = verify_scheme_sampled(s, 1.3, samples=50_000, seed=7)
    b = verify_scheme_sampled(s, 1.3, samples=50_000, seed=7)
    assert a == b
    # NaN and infinity are refused, not taken as valid: at b = inf the
    # same-color offsets would have no bound
    for b in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="1 < b < inf"):
            verify_scheme_sampled(s, b, samples=10)
    # a negative count, or one that is not an integer (a bool is not one), is
    # refused, not taken as nothing to draw; 0 is the strata alone
    for n in (-5, 2.5, True, 1e5):
        with pytest.raises(ValueError, match=r"^need samples an integer >= 0, got "):
            verify_scheme_sampled(s, 1.3, samples=n)
    assert verify_scheme_sampled(s, 1.3, samples=np.int64(1_000))
    assert verify_scheme_sampled(s, 1.3, samples=0)
    assert not verify_scheme_sampled(s, 1.34, samples=0)
    # gcd > 1 schemes, whose colors carry the i, j mod g part
    for p, q in ((2, 4), (3, 6)):
        reach = hex_b_max(p, q)
        assert verify_scheme_sampled(HexScheme(p, q), reach - 1e-6), (p, q)
        assert not verify_scheme_sampled(HexScheme(p, q), reach + 1e-2), (p, q)


def test_verify_scheme_sampled_band_alone_catches_a_violation(monkeypatch):
    # with the strata left out, the pairs of the band [|v| - 1, b) still see
    # a real violation past the reach, and none below it
    monkeypatch.setattr(hexcolor, "_strata_violation", lambda scheme, b: False)
    s, reach = HexScheme(3, 4), hex_b_max(3, 4)
    assert verify_scheme_sampled(s, reach - 1e-6)
    assert not verify_scheme_sampled(s, reach + 0.1)


def reference_verify_scheme_sampled(scheme, b, samples, seed):
    # the sampled half of verify_scheme_sampled with no candidate cut: every
    # drawn pair's two points are looked up
    v, vb = scheme.v, scheme.vbar
    span = abs(v.x) + abs(vb.x) + abs(v.y) + abs(vb.y) + b + 2.0
    for x1, y1, d, phi in forbidden_pair_draws(seed, samples, (-span, span), (-span, span), b):
        i1, j1 = hexcolor._tile_indices_vectorized(x1, y1)
        i2, j2 = hexcolor._tile_indices_vectorized(x1 + d * np.cos(phi), y1 + d * np.sin(phi))
        if np.any(hexcolor._color(scheme.p, scheme.q, i2 - i1, j2 - j1) == 0):
            return False
    return True


def test_verify_scheme_sampled_is_the_unpruned_check(monkeypatch):
    # the candidate cut drops only pairs that cannot share a color, so with
    # the strata left out the samples give the unpruned check's verdict on
    # both sides of every reach
    monkeypatch.setattr(hexcolor, "_strata_violation", lambda scheme, b: False)
    verdicts = []
    for p, q in sweep_pairs(6, 6):
        reach = hex_b_max(p, q)
        if reach is None:
            continue
        for offset in (-1e-3, -1e-6, 1e-4, 1e-2, 0.03, 0.1):
            for seed in (0, 1):
                args = (HexScheme(p, q), reach + offset, 100_000, seed)
                want = reference_verify_scheme_sampled(*args)
                assert verify_scheme_sampled(*args) == want, (p, q, offset, seed)
                verdicts.append(want)
    # both verdicts occur, so the comparison is not vacuous
    assert 0 < verdicts.count(False) < len(verdicts)
    # (1, 1) has no reach and |v| - 1 = 1/2, so every draw is a candidate
    # and the lookups take whole chunks
    widths = []
    tile_indices = hexcolor._tile_indices_vectorized

    def spy(xs, ys):
        widths.append(xs.size)
        return tile_indices(xs, ys)

    runs = [(HexScheme(1, 1), 1.2, 100_000, seed) for seed in (0, 1)]
    want = [reference_verify_scheme_sampled(*args) for args in runs]
    monkeypatch.setattr(hexcolor, "_tile_indices_vectorized", spy)
    assert [verify_scheme_sampled(*args) for args in runs] == want
    assert widths and set(widths) == {DRAW_CHUNK}


def test_same_colored_pairs_are_at_least_v_minus_1_apart():
    # the candidate cut's premise: a point lies within 1/2 of its tile's
    # center and distinct same-colored centers are at least |v| apart, so a
    # same-colored pair is at least |v| - 1 apart. Far past the reach the
    # draws hold many such pairs, and none is closer
    for p, q in sweep_pairs(10, 10):
        s = HexScheme(p, q)
        v_len = math.hypot(s.v.x, s.v.y)
        b = v_len + 0.5
        span = abs(s.v.x) + abs(s.vbar.x) + abs(s.v.y) + abs(s.vbar.y) + b + 2.0
        x1, y1, d, phi = next(forbidden_pair_draws(p + 100 * q, DRAW_CHUNK, (-span, span),
                                                   (-span, span), b))
        i1, j1 = hexcolor._tile_indices_vectorized(x1, y1)
        i2, j2 = hexcolor._tile_indices_vectorized(x1 + d * np.cos(phi), y1 + d * np.sin(phi))
        same = hexcolor._color(p, q, i2 - i1, j2 - j1) == 0
        assert same.any(), (p, q)
        assert d[same].min() >= v_len - 1.0, (p, q)


def test_color_of_tile_is_the_vectorized_lookup():
    # color_of_tile and the sampled checker's tile lookup share one closed form
    ii, jj = np.meshgrid(np.arange(-3, 4), np.arange(-3, 4), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    xs, ys = ii * S1.x + jj * S2.x, ii * S1.y + jj * S2.y
    for p, q in sweep_pairs(10, 10):
        s = HexScheme(p, q)
        scalar = [color_of_tile(s, int(i), int(j)) for i, j in zip(ii, jj)]
        vectorized = hexcolor._color(p, q, *hexcolor._tile_indices_vectorized(xs, ys))
        assert scalar == vectorized.tolist(), (p, q)
        assert all(0 <= c < color_count(s) for c in scalar)


def test_offset_color_is_the_same_color_test():
    # the sampled checker colors the offset between two tiles, not the tiles:
    # color 0 exactly when they share a color, gcd > 1 schemes included
    rng = np.random.default_rng(2)
    i1, j1, i2, j2 = rng.integers(-40, 41, size=(4, 4_000))
    k, l = rng.integers(-3, 4, size=(2, 2_000))
    schemes = sweep_pairs(10, 10)
    assert {(2, 4), (3, 6)} <= set(schemes)
    for p, q in schemes:
        # every other second tile a sublattice step from the first
        i2[1::2] = i1[1::2] + k * p + l * (p + q)
        j2[1::2] = j1[1::2] + k * q - l * p
        same = hexcolor._color(p, q, i1, j1) == hexcolor._color(p, q, i2, j2)
        assert np.array_equal(hexcolor._color(p, q, i2 - i1, j2 - j1) == 0, same), (p, q)
        assert same[1::2].all() and same.all() == (color_count(HexScheme(p, q)) == 1), (p, q)


def test_verify_scheme_sampled_points_pinned(monkeypatch):
    # the check looks up only the candidate pairs, d >= |v| - 1 - B_TOL: those
    # of rng.uniform's draws, in draw order and bit for bit, over full chunks
    # and a partial one, with each second point as the full chunk computes it
    seen = []
    tile_indices = hexcolor._tile_indices_vectorized

    def spy(xs, ys):
        seen.append((xs.copy(), ys.copy()))
        return tile_indices(xs, ys)

    monkeypatch.setattr(hexcolor, "_tile_indices_vectorized", spy)
    s, b, samples = HexScheme(1, 2), 1.3, 3 * DRAW_CHUNK + 5_000
    assert verify_scheme_sampled(s, b, samples=samples, seed=11)
    rng = np.random.default_rng(11)
    span = abs(s.v.x) + abs(s.vbar.x) + abs(s.v.y) + abs(s.vbar.y) + b + 2.0
    cut = math.hypot(s.v.x, s.v.y) - 1.0 - B_TOL
    want = []
    for m in (DRAW_CHUNK,) * 3 + (5_000,):
        x1 = rng.uniform(-span, span, m)
        y1 = rng.uniform(-span, span, m)
        d = rng.uniform(1.0 + 1e-9, b - 1e-9, m)
        phi = rng.uniform(0.0, 2.0 * math.pi, m)
        x2, y2 = x1 + d * np.cos(phi), y1 + d * np.sin(phi)
        near = d >= cut
        want += [(x1[near], y1[near]), (x2[near], y2[near])]
    # the check looks up each chunk's first points, then its second points;
    # joined, they are the candidate points of both sets in draw order
    for got, wanted in ((seen[0::2], want[0::2]), (seen[1::2], want[1::2])):
        xs, ys = (np.concatenate([pt[c] for pt in got]) for c in (0, 1))
        wx, wy = (np.concatenate([pt[c] for pt in wanted]) for c in (0, 1))
        assert 0 < xs.size == ys.size == wx.size < samples
        assert np.array_equal(xs, wx) and np.array_equal(ys, wy)


def test_verify_scheme_sampled_memory_does_not_grow_with_samples():
    # a million samples drawn one 16,384-column chunk at a time in one reused
    # buffer: a 3.0 MB tracemalloc peak, where 200,000-column chunks took 8.6 MB
    s, b = HexScheme(2, 3), hex_b_max(2, 3) - 1e-6
    assert verify_scheme_sampled(s, b, 10)  # first-call allocations are not the check's
    tracemalloc.start()
    try:
        assert verify_scheme_sampled(s, b, 1_000_000)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 6.0


def test_hex_tile_geometry():
    c = tile_center(2, -1)
    tile = [(c.x + v.x, c.y + v.y) for v in BASE_TILE]
    xs = [x for x, _ in tile]
    ys = [y for _, y in tile]
    assert sum(xs) / 6 == pytest.approx(c.x, abs=1e-12)
    assert sum(ys) / 6 == pytest.approx(c.y, abs=1e-12)
    # circumradius 1/2, vertices counterclockwise
    for k in range(6):
        (ax, ay), (bx, by) = tile[k], tile[(k + 1) % 6]
        assert math.hypot(ax - c.x, ay - c.y) == pytest.approx(0.5, abs=1e-12)
        assert (ax - c.x) * (by - c.y) - (ay - c.y) * (bx - c.x) > 0


def _reference_tile_gaps(offsets):
    """Least of the 72 vertex-to-edge distances between P and P + o, per offset.

    Exact for disjoint or touching tiles, where the closest pair of points
    always includes a vertex of one tile.
    """
    V = np.broadcast_to(np.array(BASE_TILE), (len(offsets), 6, 2))
    W = V + np.asarray(offsets)[:, None, :]

    def vertex_edge(pts, a):
        ab = np.roll(a, -1, axis=1) - a
        ap = pts[:, :, None, :] - a[:, None, :, :]
        t = np.clip((ap * ab[:, None]).sum(-1) / (ab * ab).sum(-1)[:, None], 0.0, 1.0)
        gap = ap - t[..., None] * ab[:, None]
        return np.sqrt((gap * gap).sum(-1)).min(axis=(1, 2))

    return np.minimum(vertex_edge(V, W), vertex_edge(W, V))


def test_tile_gap_matches_reference(monkeypatch):
    visited = []
    tile_gap = hexcolor._tile_gap

    def recording_gap(ox, oy):
        visited.append((ox, oy))
        return tile_gap(ox, oy)

    monkeypatch.setattr(hexcolor, "_tile_gap", recording_gap)
    for p in range(31):
        for q in range(31):
            if (p, q) != (0, 0):
                min_same_color_distance(p, q)
    monkeypatch.undo()

    rng = np.random.default_rng(0)
    r = rng.uniform(1.0 + 1e-9, 8.0, 5000)
    phi = rng.uniform(0.0, 2.0 * math.pi, 5000)
    outside = list(zip(r * np.cos(phi), r * np.sin(phi)))
    offsets = visited + outside
    want = _reference_tile_gaps(offsets)
    got = np.array([hexcolor._tile_gap(ox, oy) for ox, oy in offsets])
    assert len(visited) > 5000
    assert np.max(np.abs(got - want)) <= 1e-12

    # 2P, the base tile scaled by 2, holds the offsets at which the tiles meet
    hull = [(2 * v.x, 2 * v.y) for v in BASE_TILE]
    sides = list(zip(hull, hull[1:] + hull[:1]))
    inside = [
        (x, y)
        for x, y in rng.uniform(-1.0, 1.0, size=(4000, 2))
        if all((bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0 for (ax, ay), (bx, by) in sides)
    ]
    assert len(inside) > 2000
    for ox, oy in inside:
        assert hexcolor._tile_gap(ox, oy) == 0.0
    # on the boundary of 2P the tiles touch
    for (ax, ay), (bx, by) in sides:
        for t in np.linspace(0.0, 1.0, 7):
            assert hexcolor._tile_gap(ax + t * (bx - ax), ay + t * (by - ay)) <= 1e-12


def test_tile_gap_hexagon_tiles():
    # diameter-1 tiles of the hexagonal tiling, offset by the lattice step
    # S1 + 2*S2; oracle: dense boundary sampling of the two tiles
    off = (S1.x + 2 * S2.x, S1.y + 2 * S2.y)
    d = hexcolor._tile_gap(*off)
    assert d == pytest.approx(math.sqrt(7) / 2, abs=1e-12)

    samples = []
    for dx, dy in ((0.0, 0.0), off):
        for i in range(6):
            a = np.array(BASE_TILE[i]) + (dx, dy)
            c = np.array(BASE_TILE[(i + 1) % 6]) + (dx, dy)
            t = np.linspace(0, 1, 400, endpoint=False)[:, None]
            samples.append(a + t * (c - a))
    A = np.vstack(samples[:6])
    B = np.vstack(samples[6:])
    sampled = np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)).min()
    assert d == pytest.approx(sampled, abs=1e-5)


def _rotate(x, y, degrees):
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    return c * x - s * y, s * x + c * y


def test_tile_gap_symmetry():
    # the gap between two tiles is invariant under the twelve symmetries
    # of the hexagon: rotations by 60 degrees and the reflections
    rng = random.Random(3)
    for _ in range(500):
        ox, oy = rng.uniform(-4, 4), rng.uniform(-4, 4)
        d = hexcolor._tile_gap(ox, oy)
        for k in range(6):
            rx, ry = _rotate(ox, oy, 60 * k)
            assert hexcolor._tile_gap(rx, ry) == pytest.approx(d, abs=1e-12)
            assert hexcolor._tile_gap(rx, -ry) == pytest.approx(d, abs=1e-12)


def test_tile_gap_centroid_consistency():
    # two tiles of circumradius 1/2 whose centers are r apart: the gap lies
    # between r - 1 (vertex to vertex) and r - sqrt(3)/2 (face to face)
    rng = random.Random(5)
    for _ in range(500):
        ox, oy = rng.uniform(-3, 3), rng.uniform(-3, 3)
        r = math.hypot(ox, oy)
        d = hexcolor._tile_gap(ox, oy)
        assert max(r - 1.0, 0.0) - 1e-12 <= d <= max(r - math.sqrt(3) / 2, 0.0) + 1e-12
