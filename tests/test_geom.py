import math
import random

import numpy as np
import pytest

from chromaplane.geom import (
    DRAW_CHUNK,
    FORBIDDEN_BAND,
    chord,
    forbidden_distances,
    forbidden_pair_draws,
    pair_distances,
)
from chromaplane.hexcolor import BASE_TILE, S1, S2, _tile_gap


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


def test_polygon_min_distance_hexagon_tiles():
    # diameter-1 tiles of the hexagonal tiling, offset by the lattice step
    # S1 + 2*S2; oracle: dense boundary sampling of the two tiles
    off = (S1.x + 2 * S2.x, S1.y + 2 * S2.y)
    d = _tile_gap(*off)
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


def test_polygon_min_distance_symmetry():
    # the gap between two tiles is invariant under the twelve symmetries
    # of the hexagon: rotations by 60 degrees and the reflections
    rng = random.Random(3)
    for _ in range(500):
        ox, oy = rng.uniform(-4, 4), rng.uniform(-4, 4)
        d = _tile_gap(ox, oy)
        for k in range(6):
            rx, ry = _rotate(ox, oy, 60 * k)
            assert _tile_gap(rx, ry) == pytest.approx(d, abs=1e-12)
            assert _tile_gap(rx, -ry) == pytest.approx(d, abs=1e-12)


def test_polygon_min_distance_centroid_consistency():
    # two tiles of circumradius 1/2 whose centers are r apart: the gap lies
    # between r - 1 (vertex to vertex) and r - sqrt(3)/2 (face to face)
    rng = random.Random(5)
    for _ in range(500):
        ox, oy = rng.uniform(-3, 3), rng.uniform(-3, 3)
        r = math.hypot(ox, oy)
        d = _tile_gap(ox, oy)
        assert max(r - 1.0, 0.0) - 1e-12 <= d <= max(r - math.sqrt(3) / 2, 0.0) + 1e-12


def test_pair_distances_matches_hypot():
    rng = np.random.default_rng(3)
    p, q = rng.uniform(-2, 2, (7, 2)), rng.uniform(-2, 2, (5, 2))
    d = pair_distances(p, q)
    assert d.shape == (7, 5)
    want = np.hypot(p[:, None, 0] - q[None, :, 0], p[:, None, 1] - q[None, :, 1])
    assert np.allclose(d, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("first", ["radial", "hex"])
def test_forbidden_pair_draws_are_rng_uniform(first):
    # one full chunk and one partial chunk, each value rng.uniform's bit for bit
    seed, b, band = 5, 1.3, FORBIDDEN_BAND
    if first == "radial":
        u_range, v_range = (1.0, b * b), (0.0, 2.0 * math.pi)
    else:
        span = 4.7
        u_range = v_range = (-span, span)
    n = DRAW_CHUNK + 1234
    got = [chunk.copy() for chunk in forbidden_pair_draws(seed, n, u_range, v_range, b)]
    rng = np.random.default_rng(seed)
    ranges = (u_range, v_range, (1.0 + band, b - band), (0.0, 2.0 * math.pi))
    assert [c.shape for c in got] == [(4, DRAW_CHUNK), (4, 1234)]
    for chunk in got:
        m = chunk.shape[1]
        for row, (low, high) in zip(chunk, ranges):
            assert np.array_equal(row, rng.uniform(low, high, m))


def test_forbidden_pair_draws_small_and_empty():
    chunks = list(forbidden_pair_draws(0, 10, (0.0, 1.0), (0.0, 1.0), 1.5))
    assert [c.shape for c in chunks] == [(4, 10)]
    assert list(forbidden_pair_draws(0, 0, (0.0, 1.0), (0.0, 1.0), 1.5)) == []


def test_forbidden_distances_window_is_open():
    d = np.array([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.2, 1.5 - 2e-9, 1.5 - 1e-9, 1.5, 2.0])
    assert FORBIDDEN_BAND == 1e-9
    got = forbidden_distances(d, 1.5)
    assert got.tolist() == [False, False, True, True, True, False, False, False]
