"""Annulus colorings and bounds.

Two directions meet here. Upper bounds come from radial colorings: split
the annulus A_b (inner radius 1, outer radius b) into s equal angular
sectors and cycle k colors through them. Lower bounds come from finite
point configurations on circles inside the annulus whose induced distance
graph provably needs many colors; any annulus lower bound k lifts to a
plane lower bound k + 3 because some closed eps-ball already shows three
colors that the annulus around it cannot reuse.
"""
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distgraph import (
    DEFAULT_EPS_SCALE,
    EPS_STABILITY_SCALES,
    DistanceGraph,
    PointConfig,
    CircleSpec,
    build_graph,
    default_eps,
)
from .geom import (B_TOL, check_count, check_width, chord, difference_norms,
                   forbidden_distances, forbidden_pair_draws)
from .solver import ColoringOutcome, KColorQuery, NOT_COLORABLE, k_colorable
from .text import table_text

TWO_PI = 2.0 * math.pi

# Largest b each finite-configuration case certifies colors for: above the
# case threshold the configuration's graph needs the case's color count.
CASE_THRESHOLDS = {
    1: math.sqrt(2.0 - 2.0 * math.sin(18.0 * math.pi / 325.0)),
    2: math.sqrt(2.0 + 2.0 * math.sin(math.pi / 38.0)),
    3: math.sqrt(2.0 + 2.0 * math.sin(7.0 * math.pi / 45.0)),
    4: 2.0 * math.sqrt(2.0) - 1.0,
    5: (5.0 - math.sqrt(2.0) + math.sqrt(6.0)) / 3.0,
}

# The circle layout of each case: (points per circle, number of circles).
# Three-circle cases put the middle circle at radius (1 + b) / 2.
CASE_CIRCLE_COUNTS = {1: (1300, 2), 2: (190, 2), 3: (180, 3), 4: (120, 3), 5: (120, 3)}

# Sector counts of the reference radial schemes per color count.
RADIAL_SECTORS = {3: 9, 4: 12, 5: 10, 6: 12, 7: 14, 8: 16}

# radial_max_b_numeric bisects this b bracket to this width.
NUMERIC_BRACKET = (1.001, 2.5)
NUMERIC_TOL = 1e-7


class InstanceError(Exception):
    """A statement about the instance, not a bug; the CLI prints its label."""


class BracketInvalid(InstanceError):
    """Bisection bracket endpoints do not straddle the verdict change."""
    label = "bracket_invalid"


class NonMonotoneDetected(InstanceError):
    """Verdict at the returned threshold fails the two-sided re-check."""
    label = "non_monotone"


class EpsInstability(InstanceError):
    """Threshold moved by more than 1e-6 across the mandated eps scales."""
    label = "eps_instability"


@dataclass(frozen=True)
class RadialScheme:
    """k colors cycled around s equal sectors of an annulus, of any width."""

    k: int
    s: int

    def __post_init__(self):
        check_count(self.k, "k", low=2)
        check_count(self.s, "s", low=2 * self.k)
        if self.s % self.k:
            raise ValueError(f"need s a multiple of k, got k={self.k}, s={self.s}")

    @property
    def alpha(self) -> float:
        return TWO_PI / self.s


def _sector_colors(k: int, s: int, angles: np.ndarray) -> np.ndarray:
    """Color of the (k, s) scheme's sector containing each angle in [0, 2*pi)."""
    return (np.arange(s) % k)[np.minimum((angles / (TWO_PI / s)).astype(int), s - 1)]


def radial_color(scheme: RadialScheme, angle: float) -> int:
    """Color of the sector containing `angle` (angle in [0, 2*pi))."""
    if not 0.0 <= angle < TWO_PI:
        raise ValueError(f"angle must lie in [0, 2*pi), got {angle}")
    return int(_sector_colors(scheme.k, scheme.s, np.float64(angle)))


def radial_max_b_detail(k: int, s: int) -> tuple[float | None, dict[str, float], str]:
    """Largest proper b for the (k, s) radial scheme, with the per-constraint caps.

    A sector's outer-outer diameter d1 and outer-inner diameter d2 must stay
    below 1, and the inner chord gap between nearest same-color sectors
    must exceed b. Each caps b in closed form: d1 = 1 at b = 1/chord(alpha),
    d2 = 1 at b = 2 cos(alpha), and gap = b at b = chord((k-1) alpha).
    Returns (b or None, all three caps, binding name): None when the cap is
    not above 1 by more than B_TOL, as a cap of exactly 1 computes to 1 plus
    float noise (at k = 3, s = 6).
    """
    a = RadialScheme(k, s).alpha
    caps = {
        "d1": 1.0 / chord(a),
        "d2": 2.0 * math.cos(a),
        "gap": chord((k - 1) * a),
    }
    binding = min(caps, key=lambda name: (caps[name], name))
    b = caps[binding]
    return (b if b > 1.0 + B_TOL else None), caps, binding


def radial_max_b(k: int, s: int) -> float | None:
    return radial_max_b_detail(k, s)[0]


def radial_best(k: int, s_max: int) -> tuple[int, float] | None:
    """Sector count s <= s_max (k | s) maximizing radial_max_b; ties to smaller s."""
    check_count(k, "k", low=2)
    check_count(s_max, "s_max", low=2 * k)
    best: tuple[int, float] | None = None
    for s in range(2 * k, s_max + 1, k):
        if chord((k - 1) * (TWO_PI / s)) <= (1.0 + B_TOL if best is None else best[1]):
            break  # the gap cap bounds b and falls as s grows: no later s beats best
        b = radial_max_b(k, s)
        if b is not None and (best is None or b > best[1]):
            best = (s, b)
    return best


def lift_lower_bound(annulus_colors: int) -> int:
    """Plane lower bound from an annulus lower bound: k colors become k + 3."""
    check_count(annulus_colors, "annulus_colors", low=1)
    return annulus_colors + 3


def lower_bound_config(
    case: int, b: float, eps: float | None = None, n_override: int | None = None
) -> PointConfig:
    """Point configuration of the given lower-bound case at width b.

    Cases 1-2 use two circles at radii 1 + eps and b - eps; cases 3-5 add
    a middle circle at (1 + b) / 2. n_override scales every circle down
    for desk-size runs (divisors of the full count keep the subset
    property). The case threshold is deliberately not enforced so the
    same configs can be built on both sides of a bisection bracket.
    """
    check_count(case, "case", low=1)
    if case not in CASE_CIRCLE_COUNTS:
        raise ValueError(f"case must be 1..5, got {case}")
    check_width(b)
    if eps is None:
        eps = default_eps(b)
    if not 0.0 < eps < (b - 1.0) / 2.0:
        raise ValueError(f"need 0 < eps < (b-1)/2, got eps={eps} for b={b}")
    n_full, rings = CASE_CIRCLE_COUNTS[case]
    n = n_full if n_override is None else n_override
    check_count(n, "n_override", low=1)  # every n_full passes
    radii = [1.0 + eps, b - eps] if rings == 2 else [1.0 + eps, (1.0 + b) / 2.0, b - eps]
    return PointConfig(tuple(CircleSpec(n, r) for r in radii))


def case_graph(
    case: int, b: float, eps: float | None = None, n_override: int | None = None
) -> DistanceGraph:
    return build_graph(lower_bound_config(case, b, eps, n_override), b, eps)


def annulus_verdict(
    g: DistanceGraph, k: int, time_budget: float | None = None, seed: int = 0, progress=None
) -> ColoringOutcome:
    """Solve (k-1)-colorability of a lower-bound graph, such as case_graph's; not_colorable
    certifies that the annulus at g.b needs at least k colors, so the plane k + 3."""
    check_count(k, "k", low=2)
    return k_colorable(KColorQuery(g, k - 1, time_budget), seed=seed, progress=progress)


def _bisect(probe, lo: float, hi: float, tol: float, claim: str) -> tuple[float, float]:
    """Bisect [lo, hi] for where probe turns true; the final bracket (lo, hi).

    Needs tol > 0, probe(lo) false and probe(hi) true (claim says what probe
    tests). Halves until the bracket is at most tol wide or its midpoint
    rounds onto an end, so it ends for every tol.
    """
    if not tol > 0:  # NaN fails too
        raise ValueError(f"need tol > 0, got {tol}")
    if probe(lo):
        raise BracketInvalid(f"{claim} already at b_lo = {lo}")
    if not probe(hi):
        raise BracketInvalid(f"{claim} not even at b_hi = {hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def threshold_bisect(
    case: int,
    n_override: int | None,
    k: int,
    b_lo: float,
    b_hi: float,
    tol: float,
    time_budget: float | None = None,
    seed: int = 0,
) -> float:
    """Empirical b* where the case config first needs >= k colors.

    Requires needs-at-least-k false at b_lo and true at b_hi (verified up
    front), bisects to tol, then re-verifies both sides of the returned
    value; the config's radii move with b so monotonicity is empirical,
    not guaranteed. The whole search runs once per EPS_STABILITY_SCALES
    scale, the results must agree to 1e-6, and the DEFAULT_EPS_SCALE run's
    b* is returned.

    Each probe builds its graph, but a probe whose edge array equals, byte
    for byte, that of an earlier probe in this call reuses its verdict: the
    solve reads only the vertex count, fixed within a call, and the edges.
    The table lives for one call; a budget cut raises and is not stored.
    """
    if not 1.0 < b_lo < b_hi < math.inf:
        raise BracketInvalid(f"need 1 < b_lo < b_hi < inf, got b_lo={b_lo}, b_hi={b_hi}")
    check_count(k, "k", low=2)
    verdicts: dict[bytes, bool] = {}  # edge bytes -> needs >= k colors

    def needs(b: float, scale: float) -> bool:
        g = case_graph(case, b, (b - 1.0) * scale, n_override)
        key = g.edges.tobytes()
        if key not in verdicts:
            verdicts[key] = annulus_verdict(g, k, time_budget, seed).status == NOT_COLORABLE
        return verdicts[key]

    results: list[float] = []
    for scale in EPS_STABILITY_SCALES:
        lo, hi = _bisect(lambda b: needs(b, scale), b_lo, b_hi, tol, f"config needs >= {k} colors")
        b_star = 0.5 * (lo + hi)
        # a tol below the float spacing at b* re-checks the neighboring floats
        up = max(b_star + tol, math.nextafter(b_star, math.inf))
        down = min(b_star - tol, math.nextafter(b_star, -math.inf))
        if not needs(up, scale) or needs(down, scale):
            raise NonMonotoneDetected(f"verdict not monotone around b* = {b_star}")
        results.append(b_star)

    if max(results) - min(results) > 1e-6:
        raise EpsInstability(f"thresholds across eps scales spread {results}")
    return results[EPS_STABILITY_SCALES.index(DEFAULT_EPS_SCALE)]


class AnnulusBoundsRow(NamedTuple):
    """Chromatic bounds for the annulus A_b on one b interval (b_lo, b_hi]."""

    b_lo: float
    b_hi: float
    lower: int
    upper: int
    source: str


def annulus_bounds_rows() -> list[AnnulusBoundsRow]:
    """All annulus bound rows, from b just above 1 up to the last radial cap."""
    caps = sorted((radial_max_b(k, s), k, f"radial-{k}-{s}") for k, s in RADIAL_SECTORS.items())
    thresholds = [(CASE_THRESHOLDS[c], f"thm5-case-{c}") for c in (1, 2, 3, 4)]
    rows = []
    lo = 1.0
    for hi, source in sorted([(cap, name) for cap, _, name in caps] + thresholds):
        mid = 0.5 * (lo + hi)
        lower = 3 + sum(1 for t, _ in thresholds if t < mid)
        upper = next(k for cap, k, _ in caps if cap >= mid)
        rows.append(AnnulusBoundsRow(lo, hi, lower, upper, source))
        lo = hi
    return rows


def annulus_bounds_csv() -> str:
    return table_text(AnnulusBoundsRow._fields, annulus_bounds_rows())


def _radial_strata(k: int, s: int):
    """radial_violation_exists' strata, its deterministic half, as a probe
    b -> bool; also radial_max_b_numeric's bisection probe.

    The strata sit 1e-9 and 1e-7 either side of each sector boundary, on
    radii 1 and b. Their angles, cos, sin, colors and same-color pairs i < j
    do not depend on b and are built here once; a probe measures those pairs
    with pair_distances' float operations (difference_norms). That decides
    as the whole matrix did: other pairs have other colors, distance 0, or
    the bits of d[i, j].
    """
    offs = np.array([1e-9, 1e-7, -1e-9, -1e-7])
    boundary = np.add.outer(np.arange(s) * (TWO_PI / s), offs).ravel() % TWO_PI
    ang = np.repeat(boundary, 2)
    cos, sin = np.cos(ang), np.sin(ang)
    cols = _sector_colors(k, s, ang)
    i, j = np.nonzero(np.triu(cols[:, None] == cols, 1))

    def violation(b: float) -> bool:
        rad = np.tile([1.0, b], boundary.size)
        x, y = rad * cos, rad * sin
        return bool(np.any(forbidden_distances(difference_norms(x[i] - x[j], y[i] - y[j]), b)))

    return violation


def radial_violation_exists(
    k: int, s: int, b: float, n_pairs: int = 100_000, seed: int = 0
) -> bool:
    """Search the radial scheme for a same-color pair at a forbidden
    distance (geom.forbidden_distances).

    Deterministic strata put points just inside every sector boundary on
    both extreme radii, which is where the scheme's critical pairs live;
    seeded random pairs (second point drawn at a forbidden distance from
    the first) sweep everything else. The pairs are drawn as they are
    checked, so memory does not grow with n_pairs; n_pairs = 0 checks the
    strata alone.
    """
    RadialScheme(k, s)  # validate (k, s)
    check_width(b)
    check_count(n_pairs, "n_pairs")
    return _radial_strata(k, s)(b) or _random_pair_violation(k, s, b, n_pairs, seed)


def _random_pair_violation(k: int, s: int, b: float, n_pairs: int, seed: int) -> bool:
    """radial_violation_exists' random half, on arguments it has checked."""
    b_sq = b * b
    # r^2 of the first point is uniform on (1, b^2): uniform by area
    for r1_sq, a1, d, phi in forbidden_pair_draws(seed, n_pairs, (1.0, b_sq), (0.0, TWO_PI), b):
        r1 = np.sqrt(r1_sq)
        x2 = r1 * np.cos(a1) + d * np.cos(phi)
        y2 = r1 * np.sin(a1) + d * np.sin(phi)
        r2_sq = x2 * x2 + y2 * y2
        inside = (r2_sq >= 1.0) & (r2_sq <= b_sq)
        a2 = np.arctan2(y2, x2)
        a2 += TWO_PI * (a2 < 0.0)  # arctan2 % TWO_PI, bit for bit, without the slower %
        if np.any(inside & (_sector_colors(k, s, a1) == _sector_colors(k, s, a2))):
            return True
    return False


def radial_max_b_numeric(k: int, s: int, n_pairs: int = 100_000, seed: int = 0) -> float:
    """Largest b the strata accept, found by bisection of NUMERIC_BRACKET
    to NUMERIC_TOL, then cross-checked once by the random pairs. The
    strata's b-free pairs (_radial_strata) are built once for the whole
    bisection, not once per probe.

    Independent numerical route to the same quantity as radial_max_b;
    the two must agree to 1e-6. The strata decide: above the cap they
    find a violation, and below it the scheme is valid. Then the random
    pairs of radial_violation_exists(k, s, lo, n_pairs, seed) run once at
    lo, the largest b the strata accepted (the strata are not probed there
    again), and a violation there is a RuntimeError. That one check covers
    every accepted probe: for b' < lo, A_b' lies in A_lo, forbidden_window(b')
    in forbidden_window(lo), and the sector colors do not depend on b, so a
    pair that violates the scheme at b' violates it at lo too. With the
    strata left out, 100k pairs alone (seeds 0-2) stop 0.04-0.11 above the cap.
    """
    RadialScheme(k, s)  # validate (k, s) before bisecting
    check_count(n_pairs, "n_pairs")
    lo, hi = _bisect(
        _radial_strata(k, s), *NUMERIC_BRACKET, NUMERIC_TOL, f"the ({k}, {s}) scheme is invalid"
    )
    if _random_pair_violation(k, s, lo, n_pairs, seed):
        raise RuntimeError(
            f"the random pairs find the ({k}, {s}) scheme invalid at b = {lo!r}, "
            "where the strata accept it"
        )
    return 0.5 * (lo + hi)
