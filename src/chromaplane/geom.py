"""Planar geometry primitives: points, unit-circle chords, and the numpy
pair distances, forbidden-window test and seeded forbidden-pair draws the
checks share.

Everything here works in plain double precision. Threshold comparisons
elsewhere in the package use absolute tolerances; no exact arithmetic.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

DRAW_CHUNK = 200_000  # draws per forbidden_pair_draws chunk: 1.6 MB per buffer

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


def forbidden_distances(d: np.ndarray, b: float) -> np.ndarray:
    """Which distances lie in the forbidden window (1 + FORBIDDEN_BAND, b - FORBIDDEN_BAND)."""
    return (d > 1.0 + FORBIDDEN_BAND) & (d < b - FORBIDDEN_BAND)


def forbidden_pair_draws(seed: int, n: int, u_range, v_range, b: float):
    """n seeded draws in chunks (u, v, d, phi) of at most DRAW_CHUNK each.

    u, v: uniform on u_range, v_range (the first point); d: a distance in
    forbidden_distances' window; phi: the direction to the second point,
    in (0, 2 pi). The values are rng.uniform's from default_rng(seed),
    bit for bit. Every chunk reuses one set of buffers (chunk-sized
    temporaries cost page faults), so the next chunk overwrites the last.
    """
    rng = np.random.default_rng(seed)
    band = FORBIDDEN_BAND
    ranges = (u_range, v_range, (1.0 + band, b - band), (0.0, 2.0 * math.pi))
    bufs = np.empty((len(ranges), min(DRAW_CHUNK, max(n, 0))))
    for start in range(0, n, DRAW_CHUNK):
        chunk = bufs[:, : min(DRAW_CHUNK, n - start)]
        for buf, (low, high) in zip(chunk, ranges):
            # rng.uniform(low, high, size) is low + (high - low) * random, bit for bit
            rng.random(out=buf)
            buf *= high - low
            buf += low
        yield chunk


def chord(angle: float) -> float:
    """Length of the chord subtending `angle` on the unit circle.

    Equals the distance between two points on the circle whose central
    angle differs by `angle`; strictly increasing in angle on [0, pi].
    """
    if not 0 <= angle <= math.pi:
        raise ValueError(f"angle must lie in [0, pi], got {angle}")
    return 2.0 * math.sin(angle / 2.0)
