import math
import random

import numpy as np
import pytest

from chromaplane import cli, eightcol
from chromaplane.eightcol import (
    FEASIBLE_TOL,
    EightParams,
    constraint_slacks,
    feasible,
    maximize_b,
    optimum_json,
)

SQRT3 = math.sqrt(3)

PAPER_X = 0.108194
PAPER_Y = 0.514884


def test_feasible_at_reference_point():
    assert feasible(EightParams(PAPER_X, PAPER_Y, 1.37542), tol=1e-5)


def test_infeasible_above_reference():
    # constraint 4 is the one that gives out
    p = EightParams(PAPER_X, PAPER_Y, 1.38)
    slacks = constraint_slacks(p)
    assert slacks[3] < 0
    lhs4 = (1.5 * PAPER_Y * SQRT3) ** 2 + (PAPER_Y / 2 + PAPER_X / SQRT3) ** 2
    assert lhs4 == pytest.approx(1.891796, abs=1e-5)
    assert lhs4 < 1.38**2
    assert not feasible(p)


def test_feasible_monotone_in_b():
    rng = random.Random(13)
    for _ in range(200):
        x = rng.uniform(0.01, 0.9)
        y = rng.uniform(0.01, 0.9)
        b = rng.uniform(1.01, 2.0)
        if feasible(EightParams(x, y, b)):
            assert feasible(EightParams(x, y, max(1.0001, b - rng.uniform(0, b - 1.0001))))


def test_maximize_b_matches_reference():
    opt = maximize_b(1e-6)
    assert opt.b == pytest.approx(1.37542, abs=1e-4)
    assert opt.x == pytest.approx(PAPER_X, abs=1e-2)
    assert opt.y == pytest.approx(PAPER_Y, abs=1e-2)
    # constraints 1 and 3 active, 2 clearly slack
    assert abs(opt.slacks[0]) <= 1e-5
    assert abs(opt.slacks[2]) <= 1e-5
    assert opt.slacks[1] >= 0.29
    assert 1 in opt.active_constraints and 3 in opt.active_constraints
    assert 2 not in opt.active_constraints
    assert feasible(EightParams(opt.x, opt.y, opt.b - 1e-6))


def test_maximize_b_no_feasible_point_above():
    # the 1e-3 grid search the closed form replaced, kept as its oracle: no
    # feasible grid point caps b above the optimum, and the best comes within
    # 3 steps (|grad b| is about 2.65 at the vertex; measured gap 2.23e-3)
    opt = maximize_b(1e-6)
    step = 1e-3
    grid = np.arange(step, 1.0, step)
    X, Y = np.meshgrid(grid, grid)
    ok = (Y * SQRT3 + X <= 1.0) & ((2.0 * Y - X / (2.0 * SQRT3)) ** 2 + (X / 2.0) ** 2 <= 1.0)
    cap = np.minimum(
        2.0 * Y * SQRT3 - X,
        np.sqrt((1.5 * Y * SQRT3) ** 2 + (Y / 2.0 + X / SQRT3) ** 2),
    )
    best = cap[ok].max()
    assert best <= opt.b
    assert opt.b - best <= 3 * step


def test_constraints_1_and_3_tight_at_optimum():
    opt = maximize_b(1e-6)
    slacks = constraint_slacks(EightParams(opt.x, opt.y, opt.b))
    assert abs(slacks[0]) <= 1e-15
    assert abs(slacks[2]) <= 1e-15


def test_kkt_multipliers_positive_at_optimum():
    opt = maximize_b(1e-6)
    l1, l3 = eightcol._kkt_multipliers(opt.x, opt.y)
    assert l1 == pytest.approx(1.0765, abs=1e-4)
    assert l3 == pytest.approx(1.3536, abs=1e-4)


@pytest.mark.parametrize("dy", [1e-3, -1e-3])
def test_kkt_check_rejects_point_off_the_vertex(monkeypatch, capsys, dy):
    x, y = eightcol._vertex()
    monkeypatch.setattr(eightcol, "_vertex", lambda: (x, y + dy))
    with pytest.raises(RuntimeError, match="first-order"):
        maximize_b(1e-6)
    assert cli.main(["eight-opt"]) == cli.EXIT_INTERNAL
    assert "internal: RuntimeError" in capsys.readouterr().err


def test_kkt_check_rejects_a_negative_multiplier(monkeypatch):
    monkeypatch.setattr(eightcol, "_kkt_multipliers", lambda x, y: (1.0, -1e-9))
    with pytest.raises(RuntimeError, match="first-order"):
        maximize_b(1e-6)


def test_infeasible_vertex_is_internal_fault(monkeypatch):
    monkeypatch.setattr(eightcol, "feasible", lambda params, tol=FEASIBLE_TOL: False)
    with pytest.raises(RuntimeError, match="infeasible at b - tol"):
        maximize_b(1e-6)


def test_active_constraints_independent_of_tol():
    # a constraint is active when its slack is within FEASIBLE_TOL; tol only
    # sets where feasibility is checked
    for tol in (1e-300, 1e-31, 1e-6, 1e-3, 0.1, 0.375):
        assert maximize_b(tol).active_constraints == (1, 3, 4)


def test_maximize_b_deterministic():
    a = maximize_b(1e-6)
    b = maximize_b(1e-6)
    assert a == b


def test_maximize_b_rejects_bad_tol():
    # tol must lie in (0, b - 1), b - 1 being about 0.3754
    for tol in (0.0, -1.0, 0.4, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            maximize_b(tol)
    assert maximize_b(0.375).b == maximize_b(1e-6).b


def test_params_validation():
    with pytest.raises(ValueError):
        EightParams(0.0, 0.5, 1.3)
    for b in (0.9, math.nan):
        with pytest.raises(ValueError):
            EightParams(0.1, 0.5, b)


def test_optimum_json_shape():
    import json

    opt = maximize_b(1e-6)
    payload = json.loads(optimum_json(opt))
    assert set(payload) == {"b", "x", "y", "active_constraints", "slacks"}
    assert len(payload["slacks"]) == 4
