"""Planar geometry primitives: points, unit-circle chords, and the numpy
pair distances, forbidden-window test, seeded draws and check blocks the
sampled checks share.

Everything here works in plain double precision. Threshold comparisons
elsewhere in the package use absolute tolerances; no exact arithmetic.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Columns per unit_draws chunk, 1.6 MB per row. It fixes how the rng stream
# splits between a chunk's rows, so every sampled verdict depends on it. The
# checks walk a chunk in column_blocks; radial_max_b_numeric draws its chunks
# once per call and keeps them for every bisection probe.
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


def unit_draws(seed: int, n: int):
    """n seeded columns of four unit draws, in chunks of at most DRAW_CHUNK columns.

    Each row of a chunk is one default_rng(seed).random fill, rows in order
    and then chunk after chunk. Every chunk reuses one buffer (chunk-sized
    temporaries cost page faults), so the next chunk overwrites the last.
    """
    rng = np.random.default_rng(seed)
    buf = np.empty((4, min(DRAW_CHUNK, max(n, 0))))
    for start in range(0, n, DRAW_CHUNK):
        chunk = buf[:, : min(DRAW_CHUNK, n - start)]
        for row in chunk:
            rng.random(out=row)
        yield chunk


def scale_draws(unit: np.ndarray, low: float, high: float, out: np.ndarray | None = None):
    """rng.uniform(low, high)'s values from the unit draws it makes, bit for bit.

    rng.uniform(low, high, size) is low + (high - low) * random(size).
    """
    out = np.multiply(unit, high - low, out=out)
    out += low
    return out


def column_blocks(chunk: np.ndarray):
    """Views of chunk's columns, 16,384 at a time.

    A float64 row of a block is 128 KB, so a check that makes dozens of
    temporaries per block keeps them in cache; splitting an elementwise
    check this way changes none of its values.
    """
    for start in range(0, chunk.shape[-1], 16_384):
        yield chunk[..., start : start + 16_384]


def forbidden_pair_draws(seed: int, n: int, u_range, v_range, b: float):
    """n seeded draws in chunks (u, v, d, phi) of at most DRAW_CHUNK each.

    u, v: uniform on u_range, v_range (the first point); d: a distance in
    forbidden_distances' window; phi: the direction to the second point,
    in (0, 2 pi). The values are rng.uniform's from default_rng(seed),
    bit for bit: unit_draws' chunks scaled in place, so the next chunk
    overwrites the last.
    """
    ranges = (u_range, v_range, forbidden_window(b), (0.0, 2.0 * math.pi))
    for chunk in unit_draws(seed, n):
        for row, (low, high) in zip(chunk, ranges):
            scale_draws(row, low, high, out=row)
        yield chunk


def chord(angle: float) -> float:
    """Length of the chord subtending `angle` on the unit circle.

    Equals the distance between two points on the circle whose central
    angle differs by `angle`; strictly increasing in angle on [0, pi].
    """
    if not 0 <= angle <= math.pi:
        raise ValueError(f"angle must lie in [0, pi], got {angle}")
    return 2.0 * math.sin(angle / 2.0)
