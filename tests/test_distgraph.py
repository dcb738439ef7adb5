import math
import random
import tracemalloc

import numpy as np
import pytest

from chromaplane import distgraph
from chromaplane.annulus import CASE_CIRCLE_COUNTS, CASE_THRESHOLDS, lower_bound_config
from chromaplane.distgraph import (
    BOUNDARY_TOL,
    EPS_STABILITY_SCALES,
    CircleSpec,
    DistanceGraph,
    PointConfig,
    build_graph,
    config_from_json,
    default_eps,
    dimacs_chunks,
    export_dimacs,
    graph_from_points,
)
from chromaplane.geom import Point2, pair_distances
from conftest import brute_force_k_colorable, export_graphs


def test_circle_points_examples():
    def circle(n, r):
        return build_graph(PointConfig((CircleSpec(n, r),)), b=1.5).points

    assert circle(1, 2).tolist() == [[0.0, 2.0]]
    expected = [(0, 1), (1, 0), (0, -1), (-1, 0)]
    assert np.allclose(circle(4, 1), expected, rtol=0, atol=1e-12)
    hexpts = circle(6, 1)
    sides = np.hypot(*(hexpts - np.roll(hexpts, -1, axis=0)).T)
    assert np.allclose(sides, 1, rtol=0, atol=1e-12)


def tuple_points(config):
    """The points as one Python tuple per point, the build's reference."""
    return np.array([
        (r * math.sin(2.0 * math.pi * k / n), r * math.cos(2.0 * math.pi * k / n))
        for n, r in config.circles for k in range(n)
    ])


def test_build_graph_points_are_the_math_expression():
    # math, not np.sin, so the bits do not depend on numpy's vector kernels
    config = PointConfig((CircleSpec(1300, 1 + 1e-6), CircleSpec(7, 1.2), CircleSpec(190, 1.48)))
    want = tuple_points(config)
    got = build_graph(config, b=1.5).points
    assert got.shape == want.shape == (1497, 2)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit, -0.0 too
    # the one array build gives the per-point tuples' bytes on every case layout
    for case in CASE_CIRCLE_COUNTS:
        for n in (None, 7, 130, 1309):
            for b in (1.2, 1.48):
                config = lower_bound_config(case, b, default_eps(b), n)
                got = build_graph(config, b).points
                assert got.tobytes() == tuple_points(config).tobytes(), (case, n, b)


def test_refused_build_holds_one_point_array():
    # 262,144 points whose edges pass the cap: the build holds one 4 MB
    # point array while it counts the edges, not a tuple per point
    # (a 40.1 MB peak when they were built that way)
    config = lower_bound_config(1, 1.35, n_override=2**17)
    tracemalloc.start()
    try:
        with pytest.raises(distgraph.GraphTooLarge, match="edge index pairs"):
            build_graph(config, 1.35)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 20, peak_mb  # 10.5 MB


def test_points_are_one_read_only_float_array():
    graphs = {
        "build_graph": build_graph(PointConfig((CircleSpec(6, 1.0), CircleSpec(9, 1.3))), b=1.4),
        "graph_from_points": graph_from_points([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)], b=1.1),
        "Point2": DistanceGraph((Point2(0.0, 0.0), Point2(1.0, 0.0)), ((0, 1),), b=1.5),
        "array": DistanceGraph(np.arange(6).reshape(3, 2), (), b=1.5),
        "empty": DistanceGraph((), (), b=1.5),
        "empty graph_from_points": graph_from_points([], b=1.5),
    }
    for name, g in graphs.items():
        p = g.points
        assert p.ndim == 2 and p.shape == (g.n, 2) and p.dtype == np.float64, name
        assert not p.flags.writeable, name
        with pytest.raises(ValueError):
            p[:1] = 0.0
    assert graphs["Point2"].points.tolist() == [[0.0, 0.0], [1.0, 0.0]]
    assert graphs["array"].points.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
    # the graph holds its own copy, and leaves the caller's array writeable
    mine = np.zeros((2, 2))
    g = DistanceGraph(mine, ((0, 1),), b=1.5)
    mine[0, 0] = 9.0
    assert g.points[0, 0] == 0.0 and mine.flags.writeable


def test_graph_constructors_refuse_bad_points_and_b():
    # a point is an (x, y) pair of finite reals: no z (it was dropped), no
    # NaN or inf (they became isolated vertices), no bool or string
    bad_points = [[(0, 0, 5), (1, 0, 7)], [(0, 0), (1,)], [(0, "1")], [(0, True)],
                  np.zeros((2, 3)), np.array([[True, False]]), [0.0, 1.0], [(0, 10**400)]]
    for x in (math.nan, math.inf, -math.inf):
        bad_points += [[(0, 0), (x, 0)], np.array([[0.0, x]])]
    for points in bad_points:
        with pytest.raises(ValueError, match="finite Real numbers"):
            graph_from_points(points, 1.5)
        with pytest.raises(ValueError, match="finite Real numbers"):
            DistanceGraph(points, (), 1.5)
    # b below 1 or not finite left no edge to find; b = 1 is the unit-distance graph
    pts = (Point2(0.0, 0.0), Point2(1.0, 0.0))
    for b in (math.nan, 0.5, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match=r"^need 1 <= b < inf"):
            graph_from_points(pts, b)
        with pytest.raises(ValueError, match=r"^need 1 <= b < inf"):
            DistanceGraph(pts, ((0, 1),), b)
    for b in (1, 1.0):
        assert graph_from_points(pts, b).edges.tolist() == [[0, 1]]
        assert DistanceGraph(pts, ((0, 1),), b).b == b
    # eps is 0, or inside the annulus's half-width: no builder makes another
    for b, eps in ((1.5, -1.0), (1.5, math.nan), (1.5, math.inf), (1.5, 0.25), (1.5, 0.3),
                   (1.0, 1e-9), (1.0, -1e-300)):
        with pytest.raises(ValueError, match=r"^need eps = 0 or 0 < eps < \(b-1\)/2"):
            DistanceGraph(pts, ((0, 1),), b, eps)
    for b, eps in ((1.5, 0.0), (1.5, -0.0), (1.5, 0.2499), (1.0, 0.0), (1.5, 1e-300)):
        assert DistanceGraph(pts, ((0, 1),), b, eps).eps == eps


def test_config_validation():
    with pytest.raises(ValueError):
        PointConfig(())
    with pytest.raises(ValueError):
        PointConfig((CircleSpec(5, 1.0), CircleSpec(7, 1.0)))  # duplicate radius
    with pytest.raises(ValueError):
        PointConfig((CircleSpec(0, 1.0),))
    for r in (0.0, math.nan, math.inf, 2.0**500, 1e300):
        with pytest.raises(ValueError, match="radius"):
            PointConfig((CircleSpec(6, r), CircleSpec(6, 1.2)))
    # below 2**500 every squared difference of two points is finite
    big = math.nextafter(2.0**500, 0.0)
    g = build_graph(PointConfig((CircleSpec(2, big), CircleSpec(2, big / 2))), b=1.5)
    assert np.isfinite(pair_distances(g.points, g.points)).all()
    with pytest.raises(ValueError, match="integer"):
        PointConfig((CircleSpec(4.5, 1.0),))  # would silently become 4 points
    # a bool or a string is not a number, even where int() or float() takes it
    for n, r in ((True, 1.1), (6, "1.1"), ("6", 1.1), (6, True)):
        with pytest.raises(ValueError, match="numbers"):
            PointConfig((CircleSpec(n, r), CircleSpec(6, 1.2)))
    assert PointConfig((CircleSpec(4.0, 1.0),)).circles == (CircleSpec(4, 1.0),)


def test_graph_from_points_refuses_coordinates_whose_squares_overflow():
    # at 1e300 the squared differences overflow to inf and the pair at
    # distance 1 lost its edge; no coordinate of 2**500 or more is read
    for x in (2.0**500, -2.0**500, 1e300):
        with pytest.raises(ValueError, match=r"2\*\*500"):
            graph_from_points([(x, 0.0), (x, 1.0)], 1.5)
    big = math.nextafter(2.0**500, 0.0)
    g = graph_from_points([(big, 0.0), (-big, 0.0), (0.0, 0.0), (0.0, 1.0)], 1.5)
    assert g.edges.tolist() == [[2, 3]]


def test_graph_from_points_refuses_pairs_past_the_row_cap():
    # 2,897 points are 8,392,609 > 2**23 pair distances: refused before the
    # dense pass's two n x n coordinate planes (134 MB here) are made
    points = np.column_stack((np.arange(2_897.0), np.zeros(2_897)))
    tracemalloc.start()
    try:
        with pytest.raises(distgraph.GraphTooLarge,
                           match=r"^need at most 8388608 pair distances, got 8392609$"):
            graph_from_points(points, 1.5)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 1, peak_mb


def test_graph_from_points_at_the_row_cap_holds_two_planes():
    # 2,896 points, the most under MAX_GRAPH_ROWS: the dense pass peaks at its
    # two n x n float planes, 128 MB; the broadcast n x n x 2 form peaked at 320 MB
    points = np.random.default_rng(29).uniform(-40.0, 40.0, (2_896, 2))
    assert len(points) ** 2 <= distgraph.MAX_GRAPH_ROWS < (len(points) + 1) ** 2
    tracemalloc.start()
    try:
        g = graph_from_points(points, 1.5)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert len(g.edges) > 0
    assert peak_mb < 160, peak_mb


def test_build_graph_triangle_no_edges():
    g = build_graph(PointConfig((CircleSpec(3, 1.0),)), b=1.3)
    assert g.edges.shape == (0, 2)


def test_build_graph_six_cycle():
    g = build_graph(PointConfig((CircleSpec(6, 1.0),)), b=1.2)
    assert len(g.edges) == 6
    for i, j in g.edges.tolist():
        assert (j - i) % 6 in (1, 5)
    # brute-force 2-coloring of the 6-cycle
    assert brute_force_k_colorable(6, g.edges.tolist(), 2)


def test_edges_are_one_read_only_index_array():
    graphs = {
        "build_graph": build_graph(PointConfig((CircleSpec(6, 1.0), CircleSpec(9, 1.3))), b=1.4),
        "graph_from_points": graph_from_points([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)], b=1.1),
        "tuples": DistanceGraph(tuple(Point2(x, 0.0) for x in (0, 1, 2)), ((0, 1), (1, 2)), b=1.5),
        "empty": DistanceGraph((), (), b=1.5),
    }
    rows = {"graph_from_points": [[0, 1], [0, 2], [1, 2]], "tuples": [[0, 1], [1, 2]], "empty": []}
    for name, g in graphs.items():
        e = g.edges
        assert e.ndim == 2 and e.shape[1] == 2 and e.dtype == np.intp, name
        assert not e.flags.writeable, name
        with pytest.raises(ValueError):
            e[:1] = 0
        if name in rows:
            assert e.tolist() == rows[name], name
    assert graphs["build_graph"].edges.shape[0] > 0


def test_distance_graph_refuses_bad_edge_indices():
    pts = (Point2(0.0, 0.0), Point2(1.0, 0.0))
    for edges in (((0, -1),), ((0, 2),), ((1, 1),), ((0, 1), (2, 0))):
        with pytest.raises(ValueError, match="distinct vertices"):
            DistanceGraph(pts, edges, 1.5)
    with pytest.raises(ValueError, match="distinct vertices"):
        DistanceGraph((), ((0, 1),), 1.5)
    # an index is an integer: not a float (0.9 became 0), a bool or a string
    for edges in (((0.9, 1.2),), ((0.0, 1.0),), ((True, 2),), (("1", "2"),),
                  np.array([[0.0, 1.0]]), np.array([[False, True]]), ((0, 1, 1),), ((0,),),
                  ((0, 2**70),)):
        with pytest.raises(ValueError, match="finite Integral numbers"):
            DistanceGraph(pts, edges, 1.5)
    for edges in ((), np.empty((0, 2), dtype=np.intp), ((0, 1),)):
        assert DistanceGraph(pts, edges, 1.5).edges.shape == (len(edges), 2)


def test_build_graph_rejects_bad_eps():
    cfg = PointConfig((CircleSpec(6, 1.0),))
    with pytest.raises(ValueError):
        build_graph(cfg, b=1.2, eps=0.2)
    with pytest.raises(ValueError):
        build_graph(cfg, b=1.0)


def test_build_graph_names_an_infinite_b():
    # b = inf is refused as b, not blamed on the default eps it would give
    cfg = PointConfig((CircleSpec(6, 1.0),))
    for b in (math.inf, math.nan):
        with pytest.raises(ValueError, match=rf"^need 1 < b < inf, got b={b}$"):
            build_graph(cfg, b)


def test_build_graph_default_eps():
    cfg = PointConfig((CircleSpec(6, 1.0),))
    g = build_graph(cfg, b=1.2)
    assert g.eps == pytest.approx(0.2 * 1e-6, rel=1e-12)
    assert g.b == 1.2


def test_case2_graph_vertex_transitive():
    b, eps = 1.48, 1e-6
    cfg = PointConfig((CircleSpec(190, 1 + eps), CircleSpec(190, b - eps)))
    g = build_graph(cfg, b, eps)
    assert g.n == 380
    edges = edge_set(g)
    assert len(edges) % 190 == 0

    def shift(v):
        return (v + 1) % 190 if v < 190 else 190 + (v - 190 + 1) % 190

    shifted = {tuple(sorted((shift(i), shift(j)))) for i, j in edges}
    assert shifted == edges


def test_single_circle_circulant_symmetry():
    g = build_graph(PointConfig((CircleSpec(17, 1.02),)), b=1.5)
    edges = edge_set(g)
    shifted = {tuple(sorted(((i + 1) % 17, (j + 1) % 17))) for i, j in edges}
    assert shifted == edges


def edge_set(g):
    """The graph's edges as a set of (i, j) int tuples."""
    return set(map(tuple, g.edges.tolist()))


def dense_edges(g):
    """The same graph's edges by the dense pass over every point pair."""
    return graph_from_points(g.points, g.b).edges


@pytest.mark.parametrize("case", sorted(CASE_CIRCLE_COUNTS))
def test_circulant_build_matches_dense_desk_scale(case):
    for b in (CASE_THRESHOLDS[case] - 0.01, CASE_THRESHOLDS[case] + 0.01):
        for n in (95, 65, 12, 2, 1):
            for scale in EPS_STABILITY_SCALES:
                eps = (b - 1.0) * scale
                g = build_graph(lower_bound_config(case, b, eps, n), b, eps)
                assert np.array_equal(g.edges, dense_edges(g)), (case, b, n, scale)


@pytest.mark.parametrize("case, b, edges", [(1, 1.35, 388_700), (2, 1.48, 11_400)])
def test_circulant_build_matches_dense_full_scale(case, b, edges):
    config = lower_bound_config(case, b, default_eps(b))
    tracemalloc.start()
    try:
        g = build_graph(config, b)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert len(g.edges) == edges
    assert np.array_equal(g.edges, dense_edges(g))
    # the dense pass peaks at its two n x n float planes, 103 MB for case 1
    # (258 MB with the n x n x 2 broadcast form); a tuple of 388,700 Python
    # pairs alone took some 45 MB. Case 1's build peaks at 12.5 MB, 6.2 MB of
    # edges and the constructor's copy of them; splitting the sorted keys by
    # // and % peaked at 20.4 MB
    assert peak_mb < 16, peak_mb


def test_circulant_build_matches_dense_random_configs():
    rng = random.Random(77)
    configs = [
        PointConfig((CircleSpec(12, 1.1), CircleSpec(18, 1.4), CircleSpec(7, 0.8))),
        PointConfig((CircleSpec(6, 1.0),)),
    ]
    for _ in range(60):
        radii = rng.sample([0.3 + 0.07 * i for i in range(25)], rng.randint(1, 3))
        counts = rng.choice([(1, 2, 40), (13, 7, 30), (24, 36, 16), (2, 1, 1)])
        configs.append(PointConfig(tuple(CircleSpec(n, r) for n, r in zip(counts, radii))))
    edges = 0
    for config in configs:
        b = rng.uniform(1.05, 2.5)
        g = build_graph(config, b, 0.0)
        assert np.array_equal(g.edges, dense_edges(g)), (config, b)
        edges += len(g.edges)
    assert edges > 5_000


def test_edge_monotonicity_in_b():
    cfg = PointConfig((CircleSpec(20, 1.05), CircleSpec(20, 1.3)))
    g1 = build_graph(cfg, b=1.25, eps=0.01)
    g2 = build_graph(cfg, b=1.45, eps=0.01)
    assert edge_set(g1) <= edge_set(g2)


def test_scaling_invariance():
    lam = 2.7
    cfg = PointConfig((CircleSpec(15, 1.01), CircleSpec(15, 1.35)))
    g = build_graph(cfg, b=1.4, eps=0.004)
    arr = lam * g.points
    d = np.sqrt(((arr[:, None, :] - arr[None, :, :]) ** 2).sum(-1))
    lo, hi = lam * (1 - BOUNDARY_TOL), lam * (1.4 + BOUNDARY_TOL)
    ii, jj = np.nonzero((d >= lo) & (d <= hi))
    scaled_edges = {(int(i), int(j)) for i, j in zip(ii, jj) if i < j}
    assert scaled_edges == edge_set(g)


def test_export_dimacs_examples():
    empty = graph_from_points([(0, 0), (5, 0), (10, 0)], b=1.5)
    assert export_dimacs(empty) == "p edge 3 0\n"

    none = graph_from_points([], b=1.5)
    assert (none.n, none.edges.shape) == (0, (0, 2))
    assert export_dimacs(none) == "p edge 0 0\n"

    tri = graph_from_points([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)], b=1.1)
    assert export_dimacs(tri) == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"

    six = build_graph(PointConfig((CircleSpec(6, 1.0),)), b=1.2)
    text = export_dimacs(six)
    lines = text.strip().splitlines()
    assert lines[0] == "p edge 6 6"
    assert len([ln for ln in lines if ln.startswith("e ")]) == 6


def reference_export_dimacs(g):
    """The list-and-join export_dimacs, kept as the oracle of the streamed one."""
    lines = [f"p edge {g.n} {len(g.edges)}"]
    for i, j in g.edges.tolist():
        lines.append(f"e {i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def test_export_dimacs_matches_reference(monkeypatch):
    graphs = export_graphs(random.Random(11))
    for g in graphs:
        assert export_dimacs(g) == reference_export_dimacs(g)
    g = max(graphs, key=lambda g: len(g.edges))
    edges = len(g.edges)
    assert edges > 4
    for chunk in (1, 2, 3, edges - 1, edges + 1):
        monkeypatch.setattr(distgraph, "EXPORT_CHUNK", chunk)
        assert export_dimacs(g) == reference_export_dimacs(g)
        for text in dimacs_chunks(g):
            assert sum(ln.startswith("e ") for ln in text.splitlines()) <= chunk


def reference_vertex_table(template, n, k=1):
    """The str.format vertex_table, kept as the oracle of the label-joined one."""
    return np.array(
        [[template.format(v=i + 1, c=c, x=i * k + c) for c in range(1, k + 1)] for i in range(n)],
        dtype=object,
    ).reshape(n, k)


def export_templates(k):
    """Every template the DIMACS, CNF and LP exporters fill at k colors."""
    colors = range(1, k + 1)
    return ["e {v} ", "{v}\n", "{x} ", "-{x} -", "{x} 0\n", " conflict_{v}_", "{v}_{c}: x_",
            "{v}_{c} + x_", "{v}_{c} <= 1\n",
            " cover_{v}: " + " + ".join(f"x_{{v}}_{c}" for c in colors) + " >= 1\n",
            "".join(f" link_{{v}}_{c}: x_{{v}}_{c} - y{c} <= 0\n" for c in colors),
            "".join(f" x_{{v}}_{c}\n" for c in colors)]


def test_vertex_table_matches_reference():
    # n and k where a label gains a digit; bare fields, a field used twice
    # and escaped braces are filled as format fills them
    extra = ["{v}", "{c}", "{x}", "{{v}}", "{x}{x}{c}{v}"]
    for k in (1, 3, 4, 10):
        for template in export_templates(k) + extra:
            for n in (0, 1, 9, 10, 99, 100, 1001):
                want = reference_vertex_table(template, n, k)
                got = distgraph.vertex_table(template, n, k)
                assert got.shape == want.shape == (n, k) and got.dtype == object, (template, n, k)
                assert got.tolist() == want.tolist(), (template, n, k)


def test_circulant_keys_refuse_what_they_cannot_hold():
    # an edge key holds each point index in 32 bits, and MAX_GRAPH_ROWS is
    # below 2**31, so a configuration of more points than the cap is refused
    # where it is made, before any point is; each refusal is asserted before a
    # call that would make the points
    cap = distgraph.MAX_GRAPH_ROWS
    assert cap < 2**31
    with pytest.raises(distgraph.GraphTooLarge, match=rf"^need at most {cap} points, got {cap + 1}$"):
        PointConfig((CircleSpec(cap - 5, 1.0), CircleSpec(6, 1.3)))
    assert PointConfig((CircleSpec(cap - 6, 1.0), CircleSpec(6, 1.3))).point_count == cap
    with pytest.raises(ValueError, match=rf"^need at most {cap} points, got 4294967296$"):
        lower_bound_config(1, 1.35, n_override=2**31)
    # so build_graph never gets a configuration it would have to refuse
    with pytest.raises(ValueError, match=rf"^need at most {cap} points, got 2147483650$"):
        build_graph(PointConfig((CircleSpec(2**31 + 1, 1.0), CircleSpec(1, 1.3))), 1.5)


def test_build_refuses_slices_and_edges_past_the_row_cap(monkeypatch):
    # coprime counts make one slice of n_a x n_b pair distances, refused
    # before it is made
    cap = distgraph.MAX_GRAPH_ROWS
    config = PointConfig((CircleSpec(4_001, 1.0), CircleSpec(3_000, 1.2)))
    with pytest.raises(distgraph.GraphTooLarge,
                       match=rf"^need at most {cap} pair distances in a slice, got 12003000$"):
        build_graph(config, 1.5)
    # the edge pairs are counted before any block is tiled: full case 1 at
    # b = 1.35 builds with the cap at its pair count, and is refused one below
    config = lower_bound_config(1, 1.35)
    counts = []
    check = distgraph._check_rows
    monkeypatch.setattr(distgraph, "_check_rows", lambda rows, what: counts.append(rows) or check(rows, what))
    want = build_graph(config, 1.35).edges
    pairs = counts[-1]
    assert len(want) < pairs < 2 * len(want)  # a pair within one circle counts twice
    monkeypatch.setattr(distgraph, "MAX_GRAPH_ROWS", pairs)
    assert np.array_equal(build_graph(config, 1.35).edges, want)
    monkeypatch.setattr(distgraph, "MAX_GRAPH_ROWS", pairs - 1)
    with pytest.raises(distgraph.GraphTooLarge,
                       match=rf"^need at most {pairs - 1} edge index pairs at b=1.35, got {pairs}$"):
        build_graph(config, 1.35)


def test_case_layouts_up_to_n_2605_build_under_the_row_cap():
    # full cases 1 and 2, and the case 1 layout at n = 2605, the next member
    # of its n = 4 (mod 9) family
    for case, b, n in ((1, 1.35, None), (2, 1.48, None), (1, 1.2857826, 2605)):
        g = build_graph(lower_bound_config(case, b, n_override=n), b)
        assert len(g.edges) > 0 and g.n == 2 * (n or CASE_CIRCLE_COUNTS[case][0])


def test_config_json_roundtrip():
    cfg = PointConfig((CircleSpec(190, 1 + 1e-6), CircleSpec(190, 1.48 - 1e-6)))
    text = (
        '{"circles": [{"n": 190, "r": 1.000001}, {"n": 190, "r": 1.479999}],'
        ' "b": 1.48, "eps": 1e-06}'
    )
    cfg2, b2, eps2 = config_from_json(text)
    assert cfg2 == cfg
    assert b2 == 1.48
    assert eps2 == 1e-6
