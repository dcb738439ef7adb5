import math
import random

import numpy as np
import pytest

from chromaplane import distgraph
from chromaplane.annulus import CASE_CIRCLE_COUNTS, CASE_THRESHOLDS, lower_bound_config
from chromaplane.geom import (
    COORD_LIMIT,
    DRAW_CHUNK,
    FORBIDDEN_BAND,
    chord,
    forbidden_distances,
    forbidden_pair_draws,
    pair_distances,
)


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
