"""Planar geometry primitives: points, unit-circle chords, and the numpy
pair distances, forbidden-window test, seeded pair draws and draw-count
rule the sampled checks share.

pair_distances, the one distance kernel of the graph builds and the
sampled checks, works on two (n, m) coordinate planes and is bit-identical
to the broadcast (n, m, 2) form (tests/test_geom.py pins it); the radial
strata finish their own pairs' differences with its difference_norms.

Everything here works in plain double precision. Threshold comparisons
elsewhere in the package use absolute tolerances; no exact arithmetic.
"""
from __future__ import annotations

import math
from numbers import Integral
from typing import NamedTuple

import numpy as np

# Columns per forbidden_pair_draws chunk, 128 KB per row. It fixes how the
# rng stream splits between a chunk's rows, so every sampled draw depends on
# it. Each check draws its pairs one chunk at a time in one reused buffer, so
# its memory does not grow with the pair count and its temporaries stay in cache.
DRAW_CHUNK = 16_384

# The sampled checks' forbidden window is (1, b) inset by this at each end, so
# a distance within float noise of 1 or b is not counted as a violation.
FORBIDDEN_BAND = 1e-9

# Equality slack when comparing a computed reach or cap against b or 1.
B_TOL = 1e-9

# Coordinates of smaller magnitude keep every squared difference and sum that
# pair_distances forms finite: 2 * (2 * 2**500)**2 = 2**1003 < 2**1024.
COORD_LIMIT = 2.0**500


class Point2(NamedTuple):
    x: float
    y: float


def pair_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distance from each row point of p to each row point of q, (n, 2) and
    (m, 2) float arrays (the edge rule's values).

    dx and dy as two (n, m) planes, finished by difference_norms: the
    broadcast form's float operations in its order, with two planes alive
    at the peak where it had four.
    """
    dx = np.subtract.outer(p[:, 0], q[:, 0])
    return difference_norms(dx, np.subtract.outer(p[:, 1], q[:, 1]))


def difference_norms(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx*dx + dy*dy), in that order, computed in place in the float
    arrays dx and dy (both are overwritten); the result is dx."""
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def forbidden_window(b: float) -> tuple[float, float]:
    """Ends of the sampled checks' forbidden window: (1, b) inset by FORBIDDEN_BAND."""
    return 1.0 + FORBIDDEN_BAND, b - FORBIDDEN_BAND


def forbidden_distances(d: np.ndarray, b: float) -> np.ndarray:
    """Which distances lie strictly inside forbidden_window(b)."""
    low, high = forbidden_window(b)
    return (d > low) & (d < high)


def check_draw_count(n, name: str) -> None:
    """ValueError naming the count unless n is an integer >= 0 (a numpy
    integer passes, a bool or a float does not)."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 0:
        raise ValueError(f"need {name} an integer >= 0, got {n!r}")


def forbidden_pair_draws(seed: int, n: int, u_range, v_range, b: float):
    """n seeded draws (u, v, d, phi), as chunks of at most DRAW_CHUNK columns.

    u, v: uniform on u_range, v_range (the first point); d: a distance in
    forbidden_distances' window; phi: the direction to the second point,
    in (0, 2 pi). The values are rng.uniform's from default_rng(seed), bit
    for bit: each chunk fills its four rows in order, each as
    low + (high - low) * random(), which is how rng.uniform computes them.
    Every chunk reuses one buffer, so the next chunk overwrites the last.
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
        yield chunk


def chord(angle: float) -> float:
    """Length of the chord subtending `angle` on the unit circle.

    Equals the distance between two points on the circle whose central
    angle differs by `angle`; strictly increasing in angle on [0, pi].
    """
    if not 0 <= angle <= math.pi:
        raise ValueError(f"angle must lie in [0, pi], got {angle}")
    return 2.0 * math.sin(angle / 2.0)
