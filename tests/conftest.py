"""Shared fixtures and independent oracles.

The oracles deliberately share no machinery with the solver: plain
fixed-order backtracking over raw color assignments, and exhaustive CNF
evaluation. They exist to check the solver, so they must stay dumb.
"""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from chromaplane.distgraph import DistanceGraph, graph_from_points
from chromaplane.geom import Point2


def brute_force_k_colorable(n: int, edges, k: int) -> bool:
    """Exhaustive search over k^n assignments in fixed vertex order.

    Prunes only on direct conflicts with already-assigned neighbors; no
    ordering heuristics, no symmetry breaking.
    """
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    colors = [-1] * n

    def rec(v: int) -> bool:
        if v == n:
            return True
        for c in range(k):
            if all(colors[u] != c for u in adj[v]):
                colors[v] = c
                if rec(v + 1):
                    return True
                colors[v] = -1
        return False

    return rec(0)


def cnf_satisfiable_brute(text: str) -> bool:
    """Exhaustive satisfiability check of a DIMACS CNF (small instances only)."""
    clauses = []
    nvars = 0
    for line in text.splitlines():
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            nvars = int(line.split()[2])
            continue
        lits = [int(tok) for tok in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    assert nvars <= 22, "exhaustive CNF check capped at 22 variables"
    assigns = np.arange(1 << nvars, dtype=np.uint32)
    sat = np.ones(assigns.shape, dtype=bool)
    for clause in clauses:
        hit = np.zeros(assigns.shape, dtype=bool)
        for lit in clause:
            bit = (assigns >> (abs(lit) - 1)) & 1
            hit |= bit.astype(bool) if lit > 0 else ~bit.astype(bool)
        sat &= hit
        if not sat.any():
            return False
    return bool(sat.any())


def circulant_graph(n: int, offsets, b: float = 1.0) -> DistanceGraph:
    """Circulant graph embedded abstractly: edges {i, i+o mod n}."""
    pts = [Point2(math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n)) for i in range(n)]
    edges = set()
    for i in range(n):
        for o in offsets:
            j = (i + o) % n
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return DistanceGraph(tuple(pts), tuple(sorted(edges)), b=b, eps=0.0)


def random_circulant(rng: random.Random, max_n: int = 12) -> DistanceGraph:
    n = rng.randint(4, max_n)
    pool = list(range(1, n // 2 + 1))
    count = rng.randint(1, len(pool))
    offsets = rng.sample(pool, count)
    return circulant_graph(n, offsets)


def export_graphs(rng: random.Random) -> list[DistanceGraph]:
    """Graphs the exporters are checked on against their reference_* oracles:
    the empty graph, a single vertex, random circulants and random point sets,
    and one graph whose edges are stored out of order, which the exports must
    write in that stored order."""
    graphs = [DistanceGraph((), (), b=1.5), graph_from_points([(0, 0)], b=1.5)]
    for _ in range(8):
        graphs.append(random_circulant(rng))
        pts = [(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(rng.randint(2, 30))]
        graphs.append(graph_from_points(pts, b=1.5))
    g = max(graphs, key=lambda g: len(g.edges))
    graphs.append(DistanceGraph(g.points, g.edges[::-1], g.b))
    return graphs


def moser_spindle_points() -> list[Point2]:
    """Unit-distance embedding: two unit rhombi sharing a corner, rotated so
    their far tips are also at distance 1."""
    O = Point2(0.0, 0.0)
    A = Point2(1.0, 0.0)
    B = Point2(0.5, math.sqrt(3) / 2)
    C = Point2(1.5, math.sqrt(3) / 2)
    phi = 2 * math.asin(1 / (2 * math.sqrt(3)))

    def rot(p: Point2) -> Point2:
        return Point2(
            p.x * math.cos(phi) - p.y * math.sin(phi),
            p.x * math.sin(phi) + p.y * math.cos(phi),
        )

    return [O, A, B, C, rot(A), rot(B), rot(C)]


@pytest.fixture(scope="session")
def moser_spindle() -> DistanceGraph:
    g = graph_from_points(moser_spindle_points(), b=1.0)
    assert len(g.edges) == 11
    return g
