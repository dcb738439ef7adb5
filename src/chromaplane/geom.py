"""Planar geometry primitives: points, distances, circle chords.

Everything here works in plain double precision. Threshold comparisons
elsewhere in the package use absolute tolerances; no exact arithmetic.
"""
from __future__ import annotations

import math
from typing import NamedTuple


class Point2(NamedTuple):
    x: float
    y: float


def dist(p: Point2, q: Point2) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def chord(radius: float, angle: float) -> float:
    """Length of the chord subtending `angle` on a circle of `radius`.

    Equals the distance between two points on the circle whose central
    angle differs by `angle`; strictly increasing in angle on [0, pi].
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not 0 <= angle <= math.pi:
        raise ValueError(f"angle must lie in [0, pi], got {angle}")
    return 2.0 * radius * math.sin(angle / 2.0)


def mixed_chord(r1: float, r2: float, angle: float) -> float:
    """Distance between points at radii r1, r2 with central angle `angle`.

    Law of cosines: sqrt(r1^2 + r2^2 - 2 r1 r2 cos(angle)). Symmetric in
    (r1, r2) and reduces to chord(r, angle) when r1 == r2.
    """
    if r1 <= 0 or r2 <= 0:
        raise ValueError(f"radii must be positive, got {r1}, {r2}")
    return math.sqrt(max(0.0, r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(angle)))
