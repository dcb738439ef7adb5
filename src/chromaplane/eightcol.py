"""The eight-color construction's feasibility system and its optimum.

The construction modifies the classic seven-hexagon pattern by planting a
small triangle of an eighth color at every second corner meeting point,
which lets the hexagons grow. Two shape parameters remain: x (triangle
size) and y (hexagon size). Properness reduces to four inequalities in
(x, y, b). The largest feasible b is a closed-form vertex, checked and
not searched: constraints 1 and 3 fix (x, y) and constraint 4 caps b.
"""
import math
from dataclasses import asdict, dataclass
from numbers import Real

from .geom import check_width
from .text import json_text

SQRT3 = math.sqrt(3.0)

FEASIBLE_TOL = 1e-12


@dataclass(frozen=True)
class EightParams:
    x: float
    y: float
    b: float

    def __post_init__(self):
        for v in (self.x, self.y):  # a bool, or a numpy one, is no coordinate; NaN fails too
            if isinstance(v, bool) or not (isinstance(v, Real) and 0 < v < math.inf):
                raise ValueError(f"need 0 < x, y < inf, got {self}")
        check_width(self.b)


def constraint_slacks(params: EightParams) -> tuple[float, float, float, float]:
    """Slack of each constraint (nonnegative means satisfied):

    1. y*sqrt(3) + x <= 1
    2. 2*y*sqrt(3) - x >= b
    3. (2y - x/(2*sqrt(3)))^2 + (x/2)^2 <= 1
    4. ((3/2)*y*sqrt(3))^2 + (y/2 + x/sqrt(3))^2 >= b^2
    """
    x, y, b = params.x, params.y, params.b
    return (
        1.0 - (y * SQRT3 + x),
        (2.0 * y * SQRT3 - x) - b,
        1.0 - ((2.0 * y - x / (2.0 * SQRT3)) ** 2 + (x / 2.0) ** 2),
        ((1.5 * y * SQRT3) ** 2 + (y / 2.0 + x / SQRT3) ** 2) - b * b,
    )


def feasible(params: EightParams, tol: float = FEASIBLE_TOL) -> bool:
    """All four constraints hold, non-strictly up to tol."""
    return all(s >= -tol for s in constraint_slacks(params))


@dataclass(frozen=True)
class EightOptimum:
    b: float
    x: float
    y: float
    active_constraints: tuple[int, ...]
    slacks: tuple[float, float, float, float]


def _vertex() -> tuple[float, float]:
    """(x, y) with constraints 1 and 3 tight: x = 1 - sqrt(3)*y, 7y^2 - (4/sqrt(3))y = 2/3."""
    y = math.sqrt(22.0 / 147.0 + 4.0 * math.sqrt(2.0) / 49.0)
    return 1.0 - SQRT3 * y, y


def _kkt_multipliers(x: float, y: float) -> tuple[float, float]:
    """(l1, l3) with grad c4 = l1 * grad c1 + l3 * grad c3 at (x, y).

    c1, c3, c4 are the left-hand sides of constraints 1, 3, 4 (c4 is b^2).
    Where 1 and 3 are tight, l1, l3 > 0 means every feasible direction
    lowers c4 to first order, so b is at a local maximum.
    """
    u = 2.0 * y - x / (2.0 * SQRT3)
    v = y / 2.0 + x / SQRT3
    g3x, g3y = x / 2.0 - u / SQRT3, 4.0 * u  # grad c1 is (1, sqrt(3))
    g4x, g4y = 2.0 * v / SQRT3, 13.5 * y + v
    det = g3y - SQRT3 * g3x
    return (g4x * g3y - g3x * g4y) / det, (g4y - SQRT3 * g4x) / det


def maximize_b(tol: float = 1e-6) -> EightOptimum:
    """Maximal b admitting a feasible (x, y), checked at b - tol.

    The optimum is the vertex where constraints 1 and 3 are tight; there
    constraint 4 caps b and constraint 2 is slack. A RuntimeError reports
    a vertex that fails the first-order (KKT) check or is infeasible at
    b - tol. tol outside (0, b - 1) is a ValueError. A constraint is
    active when its slack is within FEASIBLE_TOL of zero.
    """
    x, y = _vertex()
    b = math.hypot(1.5 * y * SQRT3, y / 2.0 + x / SQRT3)
    if not (tol > 0.0 and b - tol > 1.0):
        raise ValueError(f"need 0 < tol < b - 1 = {b - 1.0!r}, got {tol!r}")
    slacks = constraint_slacks(EightParams(x, y, b))
    l1, l3 = _kkt_multipliers(x, y)
    if not (max(abs(slacks[0]), abs(slacks[2])) <= FEASIBLE_TOL and l1 > 0.0 and l3 > 0.0):
        raise RuntimeError(
            f"(x={x!r}, y={y!r}) fails the first-order check: "
            f"slacks 1, 3 = {slacks[0]!r}, {slacks[2]!r}; multipliers {l1!r}, {l3!r}"
        )
    if not feasible(EightParams(x, y, b - tol)):
        raise RuntimeError(f"(x={x!r}, y={y!r}) is infeasible at b - tol = {b - tol!r}")
    active = tuple(i + 1 for i, s in enumerate(slacks) if abs(s) <= FEASIBLE_TOL)
    return EightOptimum(b, x, y, active, slacks)


def optimum_json(opt: EightOptimum) -> str:
    return json_text(asdict(opt))
