"""Plane colorings from the hexagonal tiling.

Tiles are regular hexagons of diameter 1 with two vertical sides; tile
(i, j) is the base tile shifted by i*S1 + j*S2. A (p, q) scheme colors
tile (i, j) by its coset modulo the index-N sublattice generated by
(p, q) and (p+q, -p), where N = p^2 + pq + q^2; same-colored tile centers
form a triangular lattice spanned by v = p*S1 + q*S2 and its 60-degree
rotation vbar. The largest b for which the scheme properly colors the
interval-distance graph G_[1,b] is the minimum distance between distinct
same-colored tiles.

Both are closed forms: the reach is attained at the six nearest
same-colored tiles (min_same_color_distance), and a tile's color is a
gcd normal form of its coset (_color).

verify_scheme_sampled cross-checks a reach by sampling. A point lies
within 1/2 of its tile's center and distinct same-colored centers are at
least |v| = (sqrt(3)/2) sqrt(N) apart, so only pairs in the band
[|v| - 1, b) can share a color; the check looks up those pairs alone.
As reach <= |v| - sqrt(3)/2, the band reaches at most 1 - sqrt(3)/2 ~ 0.134
below the reach: too few draws land there to decide a verdict near it.
"""
import bisect
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geom import (B_TOL, Point2, check_count, check_width, forbidden_distances,
                   forbidden_pair_draws, pair_distances)
from .text import table_text

SQRT3 = math.sqrt(3.0)

S1 = Point2(SQRT3 / 2.0, 0.0)
S2 = Point2(SQRT3 / 4.0, -0.75)

# the four corners (i, j) + (di, dj) of a lattice cell in (i, j) order, one per row
_CORNER_DI = np.array([[0], [0], [1], [1]], dtype=np.int64)
_CORNER_DJ = np.array([[0], [1], [0], [1]], dtype=np.int64)

TILE_DIAMETER = 1.0

# circumradius 1/2, vertices at 30 + 60k degrees, counterclockwise: two sides vertical
BASE_TILE = tuple(
    Point2(0.5 * math.cos(math.radians(a)), 0.5 * math.sin(math.radians(a)))
    for a in (30, 90, 150, 210, 270, 330)
)

# _strata_violation's points: 30 per edge of the base tile's boundary, pulled in by 1e-7
# so each is owned by its own tile and pairs across same-colored tiles truly share a color.
_BOUNDARY_STRATA = np.vstack([
    a + np.linspace(0.0, 1.0, 30, endpoint=False)[:, None] * (c - a)
    for a, c in zip(np.array(BASE_TILE), np.roll(BASE_TILE, -1, axis=0))
]) * (1.0 - 1e-7)
_BOUNDARY_STRATA.flags.writeable = False


@dataclass(frozen=True)
class HexScheme:
    """(p, q) coloring of the hexagonal tiling; p, q >= 0, not both zero."""

    p: int
    q: int

    def __post_init__(self):
        check_count(self.p, "p")
        check_count(self.q, "q")
        if self.p == self.q == 0:
            raise ValueError("need (p, q) != (0, 0)")

    @property
    def v(self) -> Point2:
        return tile_center(self.p, self.q)

    @property
    def vbar(self) -> Point2:
        return tile_center(self.p + self.q, -self.p)


def tile_center(i, j) -> Point2:
    """Center of tile (i, j), for ints or int64 arrays alike."""
    return Point2(i * S1.x + j * S2.x, i * S1.y + j * S2.y)


def point_to_tile(p) -> tuple[int, int]:
    """Tile index (i, j) owning the point.

    The tiling is the Voronoi partition of the tile centers, so the owner
    is the nearest center; exact boundary ties break to the
    lexicographically smallest index, which keeps the assignment a
    partition (every point gets exactly one tile). A coordinate that is
    not finite, or of magnitude 2**62 or more, raises ValueError.
    """
    x, y = float(p[0]), float(p[1])
    # |i| <= 1.16 |x| + 0.67 |y| and |j| <= 1.34 |y|: below 2**62 each, they
    # and the cell corner one past them fit int64; NaN fails too
    if not (abs(x) < 2.0**62 and abs(y) < 2.0**62):
        raise ValueError(f"need finite coordinates of magnitude < 2**62, got ({x}, {y})")
    ii, jj = _tile_indices_vectorized(np.array([x]), np.array([y]))
    return int(ii[0]), int(jj[0])


def _color_count(p: int, q: int) -> int:
    """N = p^2 + pq + q^2, the colors of the (p, q) scheme."""
    return p * p + p * q + q * q


def _coset_key(p: int, q: int, n_colors: int, i, j):
    # N * k1 + k2 for tile (i, j), ints or arrays: (di, dj) lies in the
    # scheme's sublattice iff both forms k1, k2 vanish mod N
    return (p * i + (p + q) * j) % n_colors * n_colors + (q * i - p * j) % n_colors


def _color(p: int, q: int, i, j):
    """Color of tile (i, j) in 0..N-1, ints or int64 arrays; the sublattice gets 0.

    With g = gcd(p, q) the sublattice is g*L', L' that of (p', q') = (p, q)/g:
    tiles share a color iff i, j agree mod g and (i//g, j//g) share a coset of
    L', which p'i + (p'+q')j mod N' = N/g^2 names (onto: gcd(p', p'+q') = 1).
    """
    g = math.gcd(p, q)
    p, q = p // g, q // g
    n = _color_count(p, q)
    return (p * (i // g) + (p + q) * (j // g)) % n + n * (g * (i % g) + j % g)


def enumerated_color_count(p: int, q: int) -> int:
    """Distinct colors seen on a 4(p+q)-wide square of tiles, by pure orbit enumeration.

    Independent of the closed-form count: tiles are classed together only
    via the sublattice membership test.
    """
    n, w = _color_count(p, q), 4 * (p + q)
    return len({_coset_key(p, q, n, i, j) for i in range(w) for j in range(w)})


def color_of_tile(scheme: HexScheme, i: int, j: int) -> int:
    return int(_color(scheme.p, scheme.q, i, j))


def color_count(scheme: HexScheme) -> int:
    """Number of colors the scheme uses."""
    return _color_count(scheme.p, scheme.q)


def _same_color_offsets(scheme: HexScheme, limit: float) -> Iterator[tuple[float, float]]:
    """Nonzero same-color tile center offsets k*v + l*vbar no farther than limit.

    |k*v + l*vbar| >= |v| * sqrt(3)/2 * max(|k|, |l|), so the box
    |k|, |l| <= limit / (|v| sqrt(3)/2) holds every such offset.
    """
    v, vb = scheme.v, scheme.vbar
    m = int(limit // (math.hypot(v.x, v.y) * SQRT3 / 2.0))
    for k in range(-m, m + 1):
        for l in range(-m, m + 1):
            ox = k * v.x + l * vb.x
            oy = k * v.y + l * vb.y
            if (k, l) != (0, 0) and math.hypot(ox, oy) <= limit:
                yield ox, oy


def _tile_gap(ox: float, oy: float) -> float:
    """Distance between the base tile P and its translate P + (ox, oy).

    P is centrally symmetric, so P - P = 2P and the gap is the distance
    from the offset to 2P: the regular hexagon of circumradius 1 with
    vertical sides at x = +-sqrt(3)/2. Its symmetries fold the offset into
    the 0-30 degree wedge, where 2P ends in the face x = sqrt(3)/2 up to
    its vertex (sqrt(3)/2, 1/2).
    """
    x, y = abs(ox), abs(oy)
    if y * SQRT3 > x:  # 30-90 degrees: rotate by -60 degrees, reflect into 0-30
        x, y = 0.5 * x + 0.5 * SQRT3 * y, abs(0.5 * y - 0.5 * SQRT3 * x)
    if y > 0.5:
        return math.hypot(x - SQRT3 / 2.0, y - 0.5)
    return max(x - SQRT3 / 2.0, 0.0)


def min_same_color_distance(p: int, q: int) -> float:
    """Minimum distance between distinct same-colored tiles.

    The gap at offset o lies in [|o| - 1, |o| - sqrt(3)/2], and offsets past
    the six shortest, +-v, +-vbar, +-(vbar - v), are >= sqrt(3)|v| long:
    sqrt(3)|v| - 1 > |v| - sqrt(3)/2 as |v| >= sqrt(3)/2, so six suffice.
    """
    HexScheme(p, q)  # refuses a bad (p, q)
    return _reach(p, q)


def _reach(p: int, q: int) -> float:
    """min_same_color_distance without its check, for pairs sweep_pairs made."""
    v, vb = tile_center(p, q), tile_center(p + q, -p)
    return min(_tile_gap(k * v.x + l * vb.x, k * v.y + l * vb.y)
               for k, l in ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1)))


def hex_b_max(p: int, q: int) -> float | None:
    """Largest b for which the (p, q) coloring is proper for G_[1,b].

    None when the same-color tile distance drops below 1 (no valid b
    exists), as it does for the single-color scheme, whose tiles touch.
    """
    d = min_same_color_distance(p, q)
    return d if d >= 1.0 else None


class SchemeRow(NamedTuple):
    b: float
    n_colors: int
    p: int
    q: int


PARETO_FIELDS = SchemeRow._fields


# A sweep of more (p, q) pairs is refused before any is made; p, q <= 1446
# (1,047,627 pairs) makes its Pareto table in 11.6 s at 279 MB max RSS on a 2-vCPU Xeon.
MAX_SWEEP_PAIRS = 2**20


class SweepTooLarge(ValueError):
    """A (p, q) sweep of more than MAX_SWEEP_PAIRS pairs."""


def sweep_pairs(p_max: int, q_max: int) -> list[tuple[int, int]]:
    """The (p, q) sweep with p <= q (the reflected schemes are identical)."""
    check_count(p_max, "p_max")
    check_count(q_max, "q_max")
    p_top = min(p_max, q_max)  # q + 1 values of p for q <= p_top, p_top + 1 for each later q
    count = (p_top + 1) * (2 * q_max - p_top + 2) // 2 - 1
    if count > MAX_SWEEP_PAIRS:
        raise SweepTooLarge(f"need at most {MAX_SWEEP_PAIRS} (p, q) pairs, got {count}")
    return [
        (p, q)
        for q in range(q_max + 1)
        for p in range(min(p_max, q) + 1)
        if (p, q) != (0, 0)
    ]


def _scheme_rows(
    p_max: int, q_max: int, b_top: float = math.inf, b_values: dict | None = None
) -> tuple[list[SchemeRow], list[float]]:
    """Swept (p, q) rows that have a reach, by (n_colors, p, q), and the running maximum
    of their reaches in that order, up to the first row at which it covers b_top (no
    later row answers a b <= b_top)."""
    cover = float(b_top) - B_TOL
    rows, reach_max = [], []
    reach = -math.inf
    for n, p, q in sorted((_color_count(p, q), p, q) for p, q in sweep_pairs(p_max, q_max)):
        if reach >= cover:
            break
        b = b_values[(p, q)] if b_values is not None else _reach(p, q)
        if b is None or b < 1.0:  # no valid b: hex_b_max's None
            continue
        reach = max(reach, b)
        rows.append(SchemeRow(b, n, p, q))
        reach_max.append(reach)
    return rows, reach_max


def _fewest_colors(sweep: tuple[list[SchemeRow], list[float]], b: float) -> SchemeRow | None:
    """Row of the smallest (n_colors, p, q) whose reach is >= b - B_TOL, or None.

    The first row at which sweep's running maximum reach covers b covers it
    itself, and no row before it does. Every swept row counts, not only the
    Pareto rows: the B_TOL slack is not transitive.
    """
    rows, reach_max = sweep
    i = bisect.bisect_left(reach_max, float(b) - B_TOL)  # as a float: a numpy scalar compares slowly
    return rows[i] if i < len(rows) else None


def pareto_table(
    p_max: int = 10,
    q_max: int = 10,
    b_values: dict[tuple[int, int], float | None] | None = None,
) -> list[SchemeRow]:
    """Pareto-optimal (b_max, colors) schemes over p <= q (reflection symmetry).

    A row survives when it is the fewest-colors answer at its own reach: when no
    other scheme reaches as far (b' >= b, up to float slack) with fewer colors.
    Sorted by b. b_values (one caller: perfbench's traced replay) holds the
    hex_b_max reach of every swept pair; by default they are computed here.
    """
    sweep = _scheme_rows(p_max, q_max, b_values=b_values)
    return sorted(r for r in sweep[0] if _fewest_colors(sweep, r.b).n_colors == r.n_colors)


def best_scheme_for_b(b: float) -> tuple[int, int, int] | None:
    """Scheme of the p, q <= 10 sweep with the fewest colors whose reach
    covers b, as (p, q, n_colors), or None.

    Ties break to the lexicographically smallest (p, q).
    """
    check_width(b)
    best = _fewest_colors(_scheme_rows(10, 10, b), b)
    return None if best is None else (best.p, best.q, best.n_colors)


# The classic one-parameter scheme families: family -> r -> ((p, q), known reach)
_FAMILY_TABLE = {
    "exoo": lambda r: ((r, r + 1), math.sqrt(9 * r * r - 3 * r + 1) / 2.0),
    "lonc": lambda r: ((r, r), 1.5 * r - 1.0),
    "gjssw": lambda r: ((r, 0), SQRT3 / 2.0 * (r - 1)),
}
FAMILIES = tuple(_FAMILY_TABLE)


def _family(family: str, r: int) -> tuple[tuple[int, int], float]:
    check_count(r, "r", low=1)
    if family not in _FAMILY_TABLE:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    return _FAMILY_TABLE[family](r)


def named_family(family: str, r: int) -> HexScheme:
    """The family's scheme at parameter r: exoo (r, r+1), lonc (r, r), gjssw (r, 0)."""
    return HexScheme(*_family(family, r)[0])


def _tile_indices_vectorized(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """point_to_tile over arrays: nearest tile center, exact ties to the smallest (i, j).

    S1 and S2 are equally long and 60 degrees apart, so each lattice cell
    splits into two equilateral triangles and the nearest center is one of
    the four corners of the cell holding the point. The corners are int64
    (i, j) + (di, dj), their centers come from tile_center, and the owner is
    the first minimum of the squared distances in (i, j) order.
    """
    j0 = ys / -0.75  # -ys / 0.75, bit for bit
    ci = np.floor((xs - j0 * S2.x) / S1.x).astype(np.int64) + _CORNER_DI
    cj = np.floor(j0).astype(np.int64) + _CORNER_DJ
    cx, cy = tile_center(ci, cj)
    corner = ((xs - cx) ** 2 + (ys - cy) ** 2).argmin(axis=0)
    cols = np.arange(corner.size)
    return ci[corner, cols], cj[corner, cols]


def _strata_violation(scheme: HexScheme, b: float) -> bool:
    """Check same-color tile pairs at their closest approach.

    Same-colored tiles sit at offsets k*v + l*vbar; near-boundary point
    pairs across such tiles realize the extreme distances, so a scheme
    invalid at width b shows up here without luck.
    """
    for ox, oy in _same_color_offsets(scheme, b + TILE_DIAMETER):
        d = pair_distances(_BOUNDARY_STRATA, _BOUNDARY_STRATA + np.array([ox, oy]))
        if np.any(forbidden_distances(d, b)):
            return True
    return False


def verify_scheme_sampled(
    scheme: HexScheme, b: float, samples: int = 1_000_000, seed: int = 0
) -> bool:
    """Soundness check of the scheme at width b by point sampling.

    Deterministic near-boundary strata probe every same-color tile pair at
    its closest approach (where violations first open up); seeded random
    pairs at forbidden distances (in (1, b), inset by geom.FORBIDDEN_BAND)
    sweep the rest of the window. False as soon as any same-colored pair at
    a forbidden distance appears. Deterministic for a fixed seed.

    The strata decide the verdict. The random samples are an independent
    cross-check that has not decided a verdict near the reach: with the strata
    left out, 1M samples (seeds 0, 1) first see (1, 2), (2, 3) and (3, 4) fail
    0.02-0.08 past the reach. samples = 0 checks the strata alone.

    Only the pairs drawn in the candidate band d >= |v| - 1 - B_TOL are
    looked up; no other pair can share a color (module docstring). The cut
    is that triangle inequality, not the reach, so pairs below the reach are
    still tested. But reach <= |v| - sqrt(3)/2 (min_same_color_distance), so
    the band reaches at most 1 - sqrt(3)/2 ~ 0.134 below the reach, which is
    why the samples cannot decide a verdict near it. Where |v| - 1 <= 1
    every pair is a candidate.

    A pair is same-colored when the offset between its two tiles gets color
    0: a color names a coset of the scheme's sublattice, and the sublattice
    is the coset colored 0, so this is the test of the two tiles' colors
    for equality, one color per pair instead of two.
    """
    check_width(b)
    check_count(samples, "samples")
    if _strata_violation(scheme, b):
        return False
    v, vb = scheme.v, scheme.vbar
    span = abs(v.x) + abs(vb.x) + abs(v.y) + abs(vb.y) + b + 2.0
    window = (-span, span)
    cut = math.hypot(v.x, v.y) - 1.0 - B_TOL
    for chunk in forbidden_pair_draws(seed, samples, window, window, b):
        x1, y1, d, phi = chunk.take(np.flatnonzero(chunk[2] >= cut), axis=1)
        x2 = x1 + d * np.cos(phi)
        y2 = y1 + d * np.sin(phi)
        i1, j1 = _tile_indices_vectorized(x1, y1)
        i2, j2 = _tile_indices_vectorized(x2, y2)
        if np.any(_color(scheme.p, scheme.q, i2 - i1, j2 - j1) == 0):
            return False
    return True


def pareto_table_csv(rows: list[SchemeRow]) -> str:
    return table_text(PARETO_FIELDS, rows)


def min_colors_curve(b_values, search_max: int = 10) -> list[tuple[float, int | None]]:
    """Fewest colors reachable at each b of the grid (None when out of range); every b
    is checked before the sweep, which stops once it covers the largest."""
    grid = [float(b) for b in b_values]
    for b in grid:
        check_width(b)
    sweep = _scheme_rows(search_max, search_max, max(grid, default=-math.inf))
    bests = [_fewest_colors(sweep, b) for b in grid]
    return [(b, None if best is None else best.n_colors) for b, best in zip(grid, bests)]


MIN_COLORS_FIELDS = ("b", "min_colors")


def min_colors_csv(rows) -> str:
    return table_text(MIN_COLORS_FIELDS, rows)
