"""Planar geometry primitives: points, unit-circle chords, and the numpy
pair distances, forbidden-window test and seeded pair draws the sampled
checks share.

Everything here works in plain double precision. Threshold comparisons
elsewhere in the package use absolute tolerances; no exact arithmetic.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Columns per forbidden_pair_draws chunk, 1.6 MB per row. It fixes how the
# rng stream splits between a chunk's rows, so every sampled verdict depends
# on it. Each check draws its pairs as it checks them, one chunk at a time in
# one reused buffer, so its memory does not grow with the pair count.
DRAW_CHUNK = 200_000

# The sampled checks' forbidden window is (1, b) inset by this at each end, so
# a distance within float noise of 1 or b is not counted as a violation.
FORBIDDEN_BAND = 1e-9

# Equality slack when comparing a computed reach or cap against b or 1.
B_TOL = 1e-9


class Point2(NamedTuple):
    x: float
    y: float


def pair_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distance from each row point of p to each row point of q (the edge rule's values)."""
    diff = p[:, None, :] - q[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def forbidden_window(b: float) -> tuple[float, float]:
    """Ends of the sampled checks' forbidden window: (1, b) inset by FORBIDDEN_BAND."""
    return 1.0 + FORBIDDEN_BAND, b - FORBIDDEN_BAND


def forbidden_distances(d: np.ndarray, b: float) -> np.ndarray:
    """Which distances lie strictly inside forbidden_window(b)."""
    low, high = forbidden_window(b)
    return (d > low) & (d < high)


def forbidden_pair_draws(seed: int, n: int, u_range, v_range, b: float):
    """n seeded draws (u, v, d, phi), as blocks of at most 16,384 columns.

    u, v: uniform on u_range, v_range (the first point); d: a distance in
    forbidden_distances' window; phi: the direction to the second point,
    in (0, 2 pi). The values are rng.uniform's from default_rng(seed), bit
    for bit: each chunk of at most DRAW_CHUNK columns fills its four rows
    in order, each as low + (high - low) * random(), which is how
    rng.uniform computes them. Every chunk reuses one buffer (chunk-sized
    temporaries cost page faults), so the next chunk overwrites the last.
    A float64 row of a block is 128 KB, so a check that makes dozens of
    temporaries per block keeps them in cache; splitting an elementwise
    check this way changes none of its values.
    """
    ranges = (u_range, v_range, forbidden_window(b), (0.0, 2.0 * math.pi))
    rng = np.random.default_rng(seed)
    buf = np.empty((4, min(DRAW_CHUNK, max(n, 0))))
    for start in range(0, n, DRAW_CHUNK):
        chunk = buf[:, : min(DRAW_CHUNK, n - start)]
        for row, (low, high) in zip(chunk, ranges):
            rng.random(out=row)
            row *= high - low
            row += low
        for col in range(0, chunk.shape[1], 16_384):
            yield chunk[:, col : col + 16_384]


def chord(angle: float) -> float:
    """Length of the chord subtending `angle` on the unit circle.

    Equals the distance between two points on the circle whose central
    angle differs by `angle`; strictly increasing in angle on [0, pi].
    """
    if not 0 <= angle <= math.pi:
        raise ValueError(f"angle must lie in [0, pi], got {angle}")
    return 2.0 * math.sin(angle / 2.0)
