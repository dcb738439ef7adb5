import math
import random
import re

import numpy as np
import pytest

from chromaplane import distgraph, solver
from chromaplane.annulus import annulus_verdict, case_graph, threshold_bisect
from chromaplane.distgraph import (
    CircleSpec,
    DistanceGraph,
    PointConfig,
    build_graph,
    graph_from_points,
)
from chromaplane.geom import Point2
from chromaplane.solver import (
    COLORABLE,
    NOT_COLORABLE,
    BudgetExhausted,
    KColorQuery,
    chromatic_number,
    cnf_chunks,
    export_cnf,
    export_lp,
    greedy_clique,
    k_colorable,
    lp_chunks,
    verify_coloring,
)
from conftest import (
    brute_force_k_colorable,
    circulant_graph,
    cnf_satisfiable_brute,
    export_graphs,
    random_circulant,
)


def five_cycle():
    return circulant_graph(5, [1])


def six_cycle():
    return build_graph(PointConfig((CircleSpec(6, 1.0),)), b=1.2)


def test_moser_spindle(moser_spindle):
    assert k_colorable(KColorQuery(moser_spindle, 3)).status == NOT_COLORABLE
    out = k_colorable(KColorQuery(moser_spindle, 4))
    assert out.status == COLORABLE
    assert verify_coloring(moser_spindle, out.assignment)


def test_odd_cycle():
    g = five_cycle()
    assert not k_colorable(KColorQuery(g, 2)).colorable
    assert k_colorable(KColorQuery(g, 3)).colorable


def test_six_cycle_two_colorable():
    g = six_cycle()
    out = k_colorable(KColorQuery(g, 2))
    assert out.colorable
    assert verify_coloring(g, out.assignment)
    assert brute_force_k_colorable(6, g.edges.tolist(), 2)


def test_oracle_agreement_random_circulants():
    rng = random.Random(42)
    for _ in range(60):
        g = random_circulant(rng)
        for k in (2, 3, 4):
            got = k_colorable(KColorQuery(g, k)).colorable
            want = brute_force_k_colorable(g.n, g.edges.tolist(), k)
            assert got == want, f"n={g.n} edges={g.edges} k={k}"


def random_dense_graph(rng, max_n=11, density=0.5):
    # non-symmetric structure, unlike the circulant family
    n = rng.randint(4, max_n)
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density)
    return DistanceGraph(tuple(Point2(3.0 * i, 0.0) for i in range(n)), edges, b=1.0)


def test_oracle_agreement_random_dense_graphs():
    rng = random.Random(314)
    for _ in range(60):
        g = random_dense_graph(rng)
        for k in (2, 3, 4):
            got = k_colorable(KColorQuery(g, k)).colorable
            want = brute_force_k_colorable(g.n, g.edges.tolist(), k)
            assert got == want, f"n={g.n} edges={g.edges} k={k}"


def test_greedy_clique_is_maximal():
    # so a seeded clique of k colors leaves no uncolored vertex that already
    # sees all k of them, and k_colorable needs no check for one
    rng = random.Random(61)
    graphs = [random_circulant(rng, max_n=20) for _ in range(40)]
    graphs += [random_dense_graph(rng, max_n=20) for _ in range(40)]
    for g in graphs:
        adj = g.adjacency_masks()
        for seed in (0, 1, 2):
            clique = greedy_clique(adj, seed=seed)
            members = 0
            for v in clique:
                members |= 1 << v
            for v in clique:
                assert members & ~(adj[v] | 1 << v) == 0, (g.edges, clique)
            for u in range(g.n):
                if not members >> u & 1:
                    assert adj[u] & members != members, (g.edges, clique, u)


def reference_greedy_clique(adj, restarts=200, seed=0):
    """The vertex-space clique search greedy_clique replaced: scans every candidate's degree."""
    n = len(adj)
    if n == 0:
        return []
    rng = random.Random(seed)
    deg = [a.bit_count() for a in adj]
    start0 = max(range(n), key=lambda v: (deg[v], -v))
    best = []
    for it in range(restarts):
        start = start0 if it == 0 else rng.randrange(n)
        clique = [start]
        cand = adj[start]
        while cand:
            pick, pick_deg = -1, -1
            c = cand
            while c:
                v = (c & -c).bit_length() - 1
                c &= c - 1
                if deg[v] > pick_deg:
                    pick, pick_deg = v, deg[v]
            clique.append(pick)
            cand &= adj[pick]
        if len(clique) > len(best):
            best = clique
    return best


def reference_adjacency_masks(n, edges):
    """The per-edge loop neighbor_masks replaced."""
    masks = [0] * n
    for i, j in edges.tolist():
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def reference_rank_masks(n, edges):
    """The sort and per-edge loop _rank_masks replaced: (rank of each vertex, rank masks)."""
    deg = [0] * n
    for i, j in edges.tolist():
        deg[i] += 1
        deg[j] += 1
    rank = [0] * n
    for r, v in enumerate(sorted(range(n), key=lambda v: (-deg[v], v))):
        rank[v] = r
    return rank, reference_adjacency_masks(n, np.array(rank, dtype=np.intp)[edges])


def mask_graphs():
    """Graphs for the mask kernel: random ones at the packbits byte boundaries
    (edges in shuffled order, ends either way round), edgeless ones, ones with
    isolated vertices at those boundaries, and the refute, find and full
    case 2 graphs of the benchmark."""
    rng = random.Random(808)
    graphs = []
    isolated = {0, 7, 8, 63, 64}
    for n in (0, 1, 7, 8, 9, 63, 64, 65):
        points = tuple(Point2(3.0 * i, 0.0) for i in range(n))
        for density in (0.0, 0.1, 0.5, 1.0):
            edges = [(i, j) if rng.random() < 0.5 else (j, i)
                     for i in range(n) for j in range(i + 1, n) if rng.random() < density]
            rng.shuffle(edges)
            graphs.append(DistanceGraph(points, edges, b=1.0))
            lonely = [(i, j) for i, j in edges if not {i, j} & isolated]
            graphs.append(DistanceGraph(points, lonely, b=1.0))
    return graphs + [case_graph(1, 1.35, None, 130), case_graph(2, 1.48, None, 95),
                     case_graph(2, 1.48)]


def test_adjacency_masks_match_reference():
    for g in mask_graphs():
        assert g.adjacency_masks() == reference_adjacency_masks(g.n, g.edges), (g.n, g.edges)
        assert distgraph.neighbor_masks(g.n, g.edges[:, ::-1]) == g.adjacency_masks()


def test_rank_masks_match_reference():
    for g in mask_graphs():
        assert solver._rank_masks(g.n, g.edges) == reference_rank_masks(g.n, g.edges), g.n


def test_greedy_clique_on_kernel_masks_matches_reference():
    for g in mask_graphs():
        adj = reference_adjacency_masks(g.n, g.edges)
        for seed in (0, 1):
            want = reference_greedy_clique(adj, seed=seed)
            assert greedy_clique(g.adjacency_masks(), seed=seed) == want, (g.n, seed)


def search_graphs():
    """The random graphs the search is checked on against reference_dsatur."""
    rng = random.Random(88)
    graphs = [random_circulant(rng, max_n=24) for _ in range(40)]
    return graphs + [random_dense_graph(rng, max_n=20) for _ in range(40)]


def test_greedy_clique_matches_reference(monkeypatch):
    graphs = search_graphs() + [case_graph(1, 1.35, None, 65), case_graph(3, 1.4, None, 30)]
    for g in graphs:
        adj = g.adjacency_masks()
        for seed in (0, 1, 2):
            assert greedy_clique(adj, seed=seed) == reference_greedy_clique(adj, seed=seed)
    # greedy_clique reads _CLIQUE_RESTARTS when called
    monkeypatch.setattr(solver, "_CLIQUE_RESTARTS", 3)
    for g in graphs:
        adj = g.adjacency_masks()
        assert greedy_clique(adj, seed=5) == reference_greedy_clique(adj, 3, 5)


def test_k_colorable_seeds_with_greedy_clique(monkeypatch):
    # k_colorable runs the clique search on its own rank-space masks
    import chromaplane.solver as solver_module

    seen = []
    rank_clique = solver_module._rank_clique

    def spy(radj, rank, seed):
        ranks = rank_clique(radj, rank, seed)
        by_rank = sorted(range(len(rank)), key=rank.__getitem__)
        seen.append([by_rank[r] for r in ranks])
        return ranks

    graphs = search_graphs()
    want = [greedy_clique(g.adjacency_masks(), seed=seed) for g in graphs for seed in (0, 1, 2)]
    monkeypatch.setattr(solver_module, "_rank_clique", spy)
    for g in graphs:
        for seed in (0, 1, 2):
            k_colorable(KColorQuery(g, 4), seed=seed)
    assert seen == want


def test_k_past_the_vertex_count_solves_as_k_equal_to_it():
    # no search uses more than n colors, so k_colorable solves with min(k, n):
    # a larger k gives k = n's status, assignment and node count
    g = case_graph(1, 1.35, None, 130)

    def solve(k):
        out = k_colorable(KColorQuery(g, k))
        return out.status, out.assignment, out.search_nodes

    assert [solve(k) for k in (g.n + 1, 2 * g.n + 7, 1000)] == [solve(g.n)] * 3


def reference_dsatur(g, k, seed=0, use_clique_seed=True):
    """The O(n) pick() search that k_colorable replaced; returns (status, assignment, nodes)."""
    n = g.n
    if n == 0:
        return COLORABLE, (), 0
    adj = g.adjacency_masks()
    deg = [a.bit_count() for a in adj]
    clique = reference_greedy_clique(adj, seed=seed) if use_clique_seed else []
    if len(clique) > k:
        return NOT_COLORABLE, None, 0
    full = (1 << k) - 1
    color = [-1] * n
    sat = [0] * n
    uncolored = set(range(n))
    for idx, v in enumerate(clique):
        color[v] = idx
        uncolored.discard(v)
        for u in range(n):
            if adj[v] >> u & 1:
                sat[u] |= 1 << idx
    if any(sat[v] == full for v in uncolored):
        return NOT_COLORABLE, None, 0

    def pick():
        return max(uncolored, key=lambda v: (sat[v].bit_count(), deg[v], -v))

    if not uncolored:
        return COLORABLE, tuple(color), 0
    nodes = 0
    max_used = len(clique)
    v0 = pick()
    uncolored.discard(v0)
    stack = [[v0, ~sat[v0] & ((1 << min(k, max_used + 1)) - 1), [], max_used]]
    while stack:
        frame = stack[-1]
        v, cand, changed, saved_max = frame
        for u in changed:
            sat[u] &= ~(1 << color[v])
        changed.clear()
        if cand == 0:
            color[v] = -1
            uncolored.add(v)
            stack.pop()
            continue
        bit = cand & -cand
        frame[1] = cand ^ bit
        ci = bit.bit_length() - 1
        color[v] = ci
        nodes += 1
        dead = False
        for u in range(n):
            if adj[v] >> u & 1 and color[u] == -1 and not (sat[u] & bit):
                sat[u] |= bit
                changed.append(u)
                dead = dead or sat[u] == full
        if dead:
            continue
        if not uncolored:
            return COLORABLE, tuple(color), nodes
        max_used = max(saved_max, ci + 1)
        w = pick()
        uncolored.discard(w)
        stack.append([w, ~sat[w] & ((1 << min(k, max_used + 1)) - 1), [], max_used])
    return NOT_COLORABLE, None, nodes


def test_search_matches_reference_dsatur(monkeypatch):
    # same branch vertex at every node, so same verdict, certificate and node count
    for use_clique_seed in (True, False):
        if not use_clique_seed:  # no restarts, no clique: the unseeded search
            monkeypatch.setattr(solver, "_CLIQUE_RESTARTS", 0)
        for g in search_graphs():
            for k in (2, 3, 4):
                out = k_colorable(KColorQuery(g, k))
                want = reference_dsatur(g, k, use_clique_seed=use_clique_seed)
                assert (out.status, out.assignment, out.search_nodes) == want, (g.edges, k)
    monkeypatch.undo()
    # the desk-scale instances the benchmark times: every find seed that ends
    # inside its budget (seed 2 does not), colorable, and the refute instance
    find = case_graph(2, 1.48, None, 95)
    for seed, nodes in zip((0, 1, 3, 4, 5, 6, 7, 8, 9),
                           (104190, 225, 2416, 2416, 1483, 1493, 225, 32015, 104190)):
        out = k_colorable(KColorQuery(find, 4), seed=seed)
        assert (out.status, out.search_nodes) == (COLORABLE, nodes), seed
        assert verify_coloring(find, out.assignment) and max(out.assignment) < 4
    out = k_colorable(KColorQuery(case_graph(1, 1.35, None, 130), 3))
    assert (out.status, out.search_nodes) == (NOT_COLORABLE, 7706)


def test_search_matches_reference_dsatur_at_every_plane_boundary(monkeypatch):
    # the counts of colors seen are bit-sliced over k.bit_length() planes: k = 1
    # is one plane, k = 5 and 7 fill three (7 is every bit), k = 8 carries into a
    # fourth. Dense graphs make counts reach k, sparse ones keep k = 1 colorable.
    rng = random.Random(1979)
    graphs = [random_dense_graph(rng, max_n=28, density=rng.uniform(0.6, 0.9)) for _ in range(40)]
    graphs += [random_dense_graph(rng, max_n=12, density=0.05) for _ in range(10)]
    verdicts = set()
    for use_clique_seed in (True, False):
        if not use_clique_seed:
            monkeypatch.setattr(solver, "_CLIQUE_RESTARTS", 0)
        for g in graphs:
            for k in (1, 5, 7, 8):
                # each solve takes milliseconds; the budget ends a search that
                # never leaves the colored ranks instead of letting it run on
                out = k_colorable(KColorQuery(g, k, time_budget=5.0))
                want = reference_dsatur(g, k, use_clique_seed=use_clique_seed)
                assert (out.status, out.assignment, out.search_nodes) == want, (g.edges, k)
                verdicts.add((k, out.status, out.search_nodes > 0))
    # each k is searched to both verdicts
    assert verdicts >= {(k, s, True) for k in (1, 5, 7, 8) for s in (COLORABLE, NOT_COLORABLE)}


def test_colorable_monotone_in_k():
    rng = random.Random(9)
    for _ in range(20):
        g = random_circulant(rng, max_n=10)
        prev = False
        for k in (1, 2, 3, 4, 5):
            cur = k_colorable(KColorQuery(g, k)).colorable
            assert cur or not prev
            prev = prev or cur


def test_clique_seeding_does_not_change_status(monkeypatch):
    rng = random.Random(23)
    for _ in range(25):
        g = random_circulant(rng, max_n=10)
        for k in (2, 3):
            with_seed = k_colorable(KColorQuery(g, k)).status
            monkeypatch.setattr(solver, "_CLIQUE_RESTARTS", 0)
            without = k_colorable(KColorQuery(g, k)).status
            monkeypatch.undo()
            assert with_seed == without


def test_certificates_verify():
    rng = random.Random(5)
    for _ in range(30):
        g = random_circulant(rng, max_n=10)
        out = k_colorable(KColorQuery(g, 4))
        if out.colorable:
            assert verify_coloring(g, out.assignment)
            assert max(out.assignment) < 4


def test_colorable_answer_is_verified(monkeypatch, capsys):
    import chromaplane.solver as solver_module
    from chromaplane.cli import main

    monkeypatch.setattr(solver_module, "verify_coloring", lambda graph, assignment: False)
    with pytest.raises(RuntimeError):
        k_colorable(KColorQuery(six_cycle(), 2))
    # not_colorable answers carry no assignment to check
    assert k_colorable(KColorQuery(five_cycle(), 2)).status == NOT_COLORABLE
    assert main(["annulus-lower", "--case", "1", "--b", "1.3", "--k", "4", "--n", "8"]) == 4
    assert "internal: RuntimeError" in capsys.readouterr().err


def test_verify_coloring_examples():
    tri = graph_from_points([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)], b=1.1)
    assert verify_coloring(tri, (0, 1, 2))
    assert not verify_coloring(tri, (0, 0, 1))
    # every entry must be a color, an integer >= 0, even where no edge reads it
    one_edge = graph_from_points([(0, 0), (1, 0), (5, 5)], 1.2)
    assert one_edge.edges.tolist() == [[0, 1]]
    for bad in ((-1, -2, -3), (0, None, 0), (0.5, 1.5, 2), (0, 1, -1), (True, False, 0),
                (0, 1, 2.0), (0, 1, "2"), np.array([0.0, 1.0, 2.0]), np.array([True, False, True])):
        assert not verify_coloring(one_edge, bad), bad
    for good in ((0, 1, 0), (7, 2**70, 7), np.array([0, 1, 0]), np.array([3, 0, 9], dtype=np.uint8),
                 (np.int32(0), np.int64(1), 0)):
        assert verify_coloring(one_edge, good), good


def test_determinism():
    g = circulant_graph(11, [1, 2, 3])
    a = k_colorable(KColorQuery(g, 4))
    b = k_colorable(KColorQuery(g, 4))
    assert a.status == b.status
    assert a.assignment == b.assignment
    assert a.search_nodes == b.search_nodes


def test_chromatic_number_examples(moser_spindle):
    # complete K5: five points pairwise at distance in [1, 1.7]
    r = 1 / (2 * math.sin(math.pi / 5))
    k5 = build_graph(PointConfig((CircleSpec(5, r),)), b=1.7)
    assert len(k5.edges) == 10
    assert chromatic_number(k5) == 5

    assert chromatic_number(moser_spindle) == 4

    empty = graph_from_points([(3 * i, 0) for i in range(10)], b=1.5)
    assert chromatic_number(empty) == 1
    # no vertices: the empty coloring uses 0 colors, and is found without search
    assert chromatic_number(DistanceGraph((), (), 1.5)) == 0
    out = k_colorable(KColorQuery(DistanceGraph((), (), 1.5), 1))
    assert (out.status, out.assignment, out.search_nodes) == (COLORABLE, (), 0)
    assert chromatic_number(six_cycle()) == 2

    # an odd cycle: its largest clique is an edge, yet it needs 3 colors
    five = build_graph(PointConfig((CircleSpec(5, 0.86),)), b=1.5)
    assert len(five.edges) == 5 and len(greedy_clique(five.adjacency_masks())) == 2
    assert chromatic_number(five) == 3


def test_budget_exhausted_distinct():
    b = 1.48
    eps = (b - 1) * 1e-6
    cfg = PointConfig((CircleSpec(95, 1 + eps), CircleSpec(95, b - eps)))
    g = build_graph(cfg, b, eps)
    with pytest.raises(BudgetExhausted):
        k_colorable(KColorQuery(g, 4, time_budget=0.05))


def test_time_budget_is_none_or_a_number_above_zero():
    # a NaN budget never compares greater than the elapsed time, so it was no
    # budget at all (the seed-2 solve of this graph ran on for millions of
    # nodes); one of 0 or less stopped the search at its first budget check.
    # inf is no budget
    g = case_graph(2, 1.48, n_override=95)
    for budget in (math.nan, np.float64(math.nan), 0, 0.0, -1.0, -math.inf):
        want = rf"^need time_budget None or > 0, got {re.escape(repr(budget))}$"
        with pytest.raises(ValueError, match=want):
            KColorQuery(g, 4, budget)
        with pytest.raises(ValueError, match=want):
            annulus_verdict(g, 5, budget)
        with pytest.raises(ValueError, match=want):
            threshold_bisect(1, 5, 3, 1.01, 1.9, 1e-2, time_budget=budget)
    for budget in (None, math.inf, 1e-9, 5, np.float64(5.0)):
        assert KColorQuery(g, 4, budget).time_budget == budget


def test_progress_callback_fires(monkeypatch):
    monkeypatch.setattr(solver, "_PROGRESS_INTERVAL", 0.0)
    b = 1.48
    eps = (b - 1) * 1e-6
    cfg = PointConfig((CircleSpec(95, 1 + eps), CircleSpec(95, b - eps)))
    g = build_graph(cfg, b, eps)
    beats = []
    out = k_colorable(KColorQuery(g, 4), progress=lambda nodes, elapsed: beats.append(nodes))
    assert out.colorable
    assert beats and all(n > 0 for n in beats)


def test_export_cnf_examples():
    single = graph_from_points([(0, 0)], b=1.5)
    assert export_cnf(single, 2) == "p cnf 2 1\n1 2 0\n"

    edge = graph_from_points([(0, 0), (1, 0)], b=1.5)
    text = export_cnf(edge, 1)
    assert text == "p cnf 2 3\n1 0\n2 0\n-1 -2 0\n"
    assert not cnf_satisfiable_brute(text)

    tri = graph_from_points([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)], b=1.1)
    assert cnf_satisfiable_brute(export_cnf(tri, 3))
    assert not cnf_satisfiable_brute(export_cnf(tri, 2))


def test_cnf_faithfulness_random_graphs():
    # sizes capped so exhaustive CNF enumeration stays fast
    rng = random.Random(77)
    cases = 0
    while cases < 25:
        g = random_circulant(rng, max_n=10)
        for k in (2, 3, 4):
            if g.n * k > 21:
                continue
            cases += 1
            sat = cnf_satisfiable_brute(export_cnf(g, k))
            assert sat == k_colorable(KColorQuery(g, k)).colorable


def test_export_lp_examples():
    single = graph_from_points([(0, 0)], b=1.5)
    text = export_lp(single, 1)
    assert "Minimize" in text and "End" in text
    assert " obj: 1 y1" in text
    assert sum(1 for ln in text.splitlines() if ln.startswith(" cover_")) == 1
    assert sum(1 for ln in text.splitlines() if ln.startswith(" link_")) == 1

    edge = graph_from_points([(0, 0), (1, 0)], b=1.5)
    text = export_lp(edge, 2)
    lines = text.splitlines()
    assert sum(1 for ln in lines if ln.startswith(" cover_")) == 2
    # one conflict constraint per (edge, color)
    assert sum(1 for ln in lines if ln.startswith(" conflict_")) == 2
    assert sum(1 for ln in lines if ln.startswith(" link_")) == 4
    assert " obj: 1 y1 + 2 y2" in text


def test_export_lp_case2_size():
    from chromaplane.annulus import case_graph

    g = case_graph(2, b=1.48)
    assert g.n == 380
    text = export_lp(g, 4)
    lines = text.splitlines()
    binary_start = lines.index("Binary")
    xs = [ln for ln in lines[binary_start:] if ln.startswith(" x_")]
    ys = [ln for ln in lines[binary_start:] if ln.startswith(" y")]
    assert len(xs) == 380 * 4
    assert len(ys) == 4


def reference_export_cnf(graph, k):
    """The list-and-join export_cnf, kept as the oracle of the streamed one."""
    n = graph.n
    edges = graph.edges
    lines = [f"p cnf {n * k} {n + len(edges) * k}"]
    for i in range(1, n + 1):
        base = (i - 1) * k
        lines.append(" ".join(str(base + c) for c in range(1, k + 1)) + " 0")
    for i, j in edges.tolist():
        for c in range(1, k + 1):
            lines.append(f"-{i * k + c} -{j * k + c} 0")
    return "\n".join(lines) + "\n"


def reference_export_lp(graph, k):
    """The list-and-join export_lp, kept as the oracle of the streamed one."""
    n = graph.n
    edges = graph.edges
    out = ["Minimize", " obj: " + " + ".join(f"{c} y{c}" for c in range(1, k + 1))]
    out.append("Subject To")
    for i in range(1, n + 1):
        terms = " + ".join(f"x_{i}_{c}" for c in range(1, k + 1))
        out.append(f" cover_{i}: {terms} >= 1")
    for i, j in edges.tolist():
        for c in range(1, k + 1):
            out.append(f" conflict_{i + 1}_{j + 1}_{c}: x_{i + 1}_{c} + x_{j + 1}_{c} <= 1")
    for i in range(1, n + 1):
        for c in range(1, k + 1):
            out.append(f" link_{i}_{c}: x_{i}_{c} - y{c} <= 0")
    out.append("Binary")
    for i in range(1, n + 1):
        for c in range(1, k + 1):
            out.append(f" x_{i}_{c}")
    for c in range(1, k + 1):
        out.append(f" y{c}")
    out.append("End")
    return "\n".join(out) + "\n"


def test_exports_match_reference(monkeypatch):
    graphs = export_graphs(random.Random(12))
    for g in graphs:
        for k in range(1, 6):
            assert export_cnf(g, k) == reference_export_cnf(g, k)
            assert export_lp(g, k) == reference_export_lp(g, k)
    g = max(graphs, key=lambda g: len(g.edges))
    edges = len(g.edges)
    assert edges > 4
    for chunk in (1, 2, 3, edges - 1, edges + 1):
        monkeypatch.setattr(distgraph, "EXPORT_CHUNK", chunk)
        for k in (1, 3):
            assert export_cnf(g, k) == reference_export_cnf(g, k)
            assert export_lp(g, k) == reference_export_lp(g, k)
            # no chunk holds the conflict lines of more than EXPORT_CHUNK edges,
            # nor the per-vertex lines of more than EXPORT_CHUNK vertices: one
            # CNF clause each, and LP cover, link and binary lines
            for text in cnf_chunks(g, k):
                lines = text.splitlines()
                assert sum(ln.startswith("-") for ln in lines) <= chunk * k
                assert sum(ln[0].isdigit() for ln in lines) <= chunk
            for text in lp_chunks(g, k):
                lines = text.splitlines()
                assert sum(ln.startswith(" conflict_") for ln in lines) <= chunk * k
                vertices = {m.groups() for m in map(LP_VERTEX_LINE.match, lines) if m}
                for section in ("cover", "link", "x"):
                    assert sum(s == section for s, _ in vertices) <= chunk


# a per-vertex LP line: its section and its vertex
LP_VERTEX_LINE = re.compile(r" (cover|link|x)_(\d+)[_:]")


def test_exports_refuse_more_vertex_color_cells_than_the_cap(moser_spindle, monkeypatch):
    # n * k up to MAX_EXPORT_CELLS is written as before; past it the export is
    # refused at the first chunk, before any per-vertex table is made
    g = moser_spindle
    want = {export: export(g, 3) for export in (export_cnf, export_lp)}

    def no_table(*args):
        raise AssertionError("a table was made")

    monkeypatch.setattr(solver, "MAX_EXPORT_CELLS", 3 * g.n)
    for export in (export_cnf, export_lp):
        assert export(g, 3) == want[export]
    monkeypatch.setattr(solver, "vertex_table", no_table)
    for chunks in (cnf_chunks, lp_chunks):
        with pytest.raises(solver.ExportTooLarge,
                           match="^need at most 21 vertices x k, got 28$"):
            next(chunks(g, 4))


def test_exports_reject_k_below_one():
    g = graph_from_points([(0, 0), (1, 0)], b=1.5)
    for export in (export_cnf, export_lp):
        with pytest.raises(ValueError, match="^need k an integer >= 1, got 0$"):
            export(g, 0)
    # and so does the query the solver takes
    with pytest.raises(ValueError, match="^need k an integer >= 1, got 0$"):
        KColorQuery(g, 0)
