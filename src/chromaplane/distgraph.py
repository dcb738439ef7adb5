"""Finite distance graphs on unions of concentric circles.

A configuration is a union of evenly spaced circle point sets; the graph
joins two points when their distance falls in [1, b]. Point k of an
n-point circle of radius r sits at (r sin(2 pi k / n), r cos(2 pi k / n)),
so every circle has one point on the upward vertical half-line.

build_graph uses a circulant build, one offset slice of distances per
circle pair (one row when the counts are equal), and never forms the
all-pairs distance matrix; it sorts the edges as packed int64 keys and
splits them with a shift and a mask. graph_from_points, for arbitrary
points, keeps the dense all-pairs pass under the same row cap. Both refuse
coordinates past geom.COORD_LIMIT, where squared distances overflow.

A graph is two read-only arrays, (n, 2) float points and (m, 2) index
edges, that only its constructor makes from caller input; neighbor_masks
turns the edges into per-vertex bitmask ints with numpy's packbits, and
no step of either makes a Python object per point or edge.

The exports (DIMACS here, CNF and LP in solver) are generators of text
chunks, so the CLI streams them; each export_* function is the join of its
generator. Every line comes from row_texts, which lays n x k per-vertex
string tables (vertex_table, each cell one join of a template's literal
text and labels made once per table) end to end and writes each chunk of
rows, edge rows (i, j) or vertex rows (i,), with one index array, one
gather and one join.
"""
import itertools
import json
import math
import string
from dataclasses import dataclass
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from .geom import COORD_LIMIT, check_width, pair_distances

# Edge rule: distance in [1 - BOUNDARY_TOL, b + BOUNDARY_TOL]. The point
# configurations keep all pairwise distances safely off the interval
# boundary for generic eps; the tolerance only absorbs float noise.
BOUNDARY_TOL = 1e-12

DEFAULT_EPS_SCALE = 1e-6

# Thresholds derived from these graphs must be stable across these
# eps scales (relative to b - 1) before being reported.
EPS_STABILITY_SCALES = (1e-5, 1e-6, 1e-7)

# The most rows a graph build makes of each kind: points, one circle pair's
# slice of pair distances (all n * n of them in graph_from_points), and edge
# index pairs tiled (a pair within one circle counts twice). More is refused
# with GraphTooLarge before it is made. At the cap the points are one 134 MB
# array (16 bytes each; a process that makes them and is then refused peaks at
# 366 MB RSS), the edge build about 0.2 GB (23 bytes a pair), and the dense
# pass of graph_from_points on 2,896 points peaks at 128 MB (tracemalloc), its
# two n x n float planes; full case 1 tiles 483,600 pairs. Below 2**31, so an
# edge key holds each point index in 32 bits.
MAX_GRAPH_ROWS = 2**23

# row_texts builds and writes exports this many rows at a time, edges or (in
# the per-vertex sections) vertices: about 0.7 MB of LP text at k = 4, so an
# export's memory is set by the graph, not by the length of its text.
EXPORT_CHUNK = 4096


def default_eps(b: float) -> float:
    """Radial inset used when the caller does not pick one."""
    return (b - 1.0) * DEFAULT_EPS_SCALE


class GraphTooLarge(ValueError):
    """A graph whose points, pair distances or edge pairs pass MAX_GRAPH_ROWS."""


def _check_rows(rows: int, what: str) -> None:
    if rows > MAX_GRAPH_ROWS:
        raise GraphTooLarge(f"need at most {MAX_GRAPH_ROWS} {what}, got {rows}")


class CircleSpec(NamedTuple):
    n: int
    r: float


@dataclass(frozen=True)
class PointConfig:
    """Union of evenly spaced circle point sets around the origin."""

    circles: tuple[CircleSpec, ...]

    def __post_init__(self):
        if not self.circles:
            raise ValueError("config needs at least one circle")
        for n, r in self.circles:
            for v in (n, r):
                if isinstance(v, bool) or not isinstance(v, Real):
                    raise ValueError(f"circle point count and radius must be numbers, got {v!r}")
            if n % 1 != 0:  # NaN and inf fail too
                raise ValueError(f"circle point count must be an integer, got {n!r}")
            if n < 1:
                raise ValueError(f"circle point count must be >= 1, got {n}")
            if not 0 < r < COORD_LIMIT:  # NaN fails too
                raise ValueError(f"circle radius must be a number in (0, 2**500), got {r}")
        circles = tuple(CircleSpec(int(n), float(r)) for n, r in self.circles)
        radii = [r for _, r in circles]
        if len(set(radii)) != len(radii):
            raise ValueError("circles must have pairwise distinct radii")
        object.__setattr__(self, "circles", circles)
        _check_rows(self.point_count, "points")

    @property
    def point_count(self) -> int:
        return sum(n for n, _ in self.circles)


def _pairs(values, number: type, dtype) -> np.ndarray:
    """values, an array or a sequence of pairs (() for none), as a read-only
    (m, 2) array of dtype; ValueError unless each entry is a finite number
    of the kind given (Integral or Real; a bool or a str is neither) that
    dtype holds."""
    raw = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    ok = (all(isinstance(v, number) and not isinstance(v, bool) for v in raw.flat)
          if raw.dtype == object else raw.dtype.kind in ("iu" if number is Integral else "iuf"))
    ok = ok and raw.shape[1:] == (2,) or raw.shape == (0,)
    try:
        arr = raw.astype(dtype).reshape(-1, 2) if ok else raw
    except OverflowError:  # a Python int too large for dtype
        ok, arr = False, raw
    if not ok or number is Real and not np.isfinite(arr).all():
        raise ValueError(f"need pairs of finite {number.__name__} numbers, got {values!r:.80}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DistanceGraph:
    """Immutable graph: points plus index-pair edges for distances in [1, b].

    points is a read-only (n, 2) float64 array of finite coordinates, edges a
    read-only (m, 2) np.intp array of rows (i, j) with 0 <= i, j < n, i != j.
    The constructor takes each as an array or a sequence of pairs (a Point2
    is one), () for none, and refuses any other input with ValueError, as it
    does a b outside [1, inf) and an eps that is neither 0 nor in (0, (b-1)/2).
    build_graph and graph_from_points store i < j, sorted (i asc, j asc);
    the exports write edges in stored order. Graphs compare by identity:
    an array field has no tuple-like == or hash.
    """

    points: np.ndarray
    edges: np.ndarray
    b: float
    eps: float = 0.0

    def __post_init__(self):
        if not 1.0 <= self.b < math.inf:  # NaN fails too
            raise ValueError(f"need 1 <= b < inf, got b={self.b}")
        if not (self.eps == 0.0 or 0.0 < self.eps < (self.b - 1.0) / 2.0):
            raise ValueError(f"need eps = 0 or 0 < eps < (b-1)/2, got eps={self.eps} for b={self.b}")
        points, edges = _pairs(self.points, Real, np.float64), _pairs(self.edges, Integral, np.intp)
        n, (i, j) = len(points), edges.T
        if edges.size and not (0 <= edges.min() and edges.max() < n and (i != j).all()):
            raise ValueError(f"edges must join two distinct vertices in 0..{n - 1}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "edges", edges)

    @property
    def n(self) -> int:
        return len(self.points)

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks (vertex j set in mask i iff edge ij),
        built by neighbor_masks: an n x n bool matrix, n^2 bytes (6.8 MB at
        2,600 vertices), packed to bits row by row."""
        return neighbor_masks(self.n, self.edges)


def neighbor_masks(n: int, edges: np.ndarray) -> list[int]:
    """Mask i has bit j set iff a row of the (m, 2) index array edges joins i and j.

    Both ends of every edge are set in an n x n bool matrix, packbits packs
    each row little-endian (column j is bit j % 8 of byte j // 8, the last
    byte padded with zeros), and each row's bytes become one int.
    """
    bits = np.zeros((n, n), dtype=bool)
    bits[edges[:, 0], edges[:, 1]] = True
    bits[edges[:, 1], edges[:, 0]] = True
    return [int.from_bytes(row, "little") for row in np.packbits(bits, axis=1, bitorder="little")]


def _in_window(d: np.ndarray, b: float) -> np.ndarray:
    return (d >= 1.0 - BOUNDARY_TOL) & (d <= b + BOUNDARY_TOL)


def _circulant_edges(config: PointConfig, points: np.ndarray, b: float) -> np.ndarray:
    """Edges of a circle configuration from one offset slice per circle pair.

    With g = gcd(n_a, n_b), rotating by 2 pi / g maps point i of circle A to
    i + n_a/g and point j of circle B to j + n_b/g, so the distances from the
    first n_a/g points of A to all of B fix the whole A-B block. The slice
    uses the pair_distances and _in_window of graph_from_points' dense pass
    on the same coordinates, and the edges come out sorted (i asc, j asc) as
    there.

    Every slice's hits are counted before any block is tiled: a slice of more
    than MAX_GRAPH_ROWS pair distances, or blocks of more than MAX_GRAPH_ROWS
    index pairs in all (hits x g each), raise GraphTooLarge first.

    Each edge is the int64 key (i << 32) | j, split back by a shift and a
    mask; MAX_GRAPH_ROWS keeps i and j within 32 bits. Each block's keys are
    ascending runs, which the stable sort (timsort) merges.
    """
    starts = np.cumsum([0] + [n for n, _ in config.circles]).tolist()
    blocks = []
    for a, (na, _) in enumerate(config.circles):
        for c in range(a, len(config.circles)):
            nb = config.circles[c].n
            g = math.gcd(na, nb)
            pa, pb = na // g, nb // g
            sa, sb = starts[a], starts[c]
            _check_rows(pa * nb, "pair distances in a slice")
            d = pair_distances(points[sa:sa + pa], points[sb:sb + nb])
            blocks.append((a == c, g, pa, pb, sa, sb, nb, *np.nonzero(_in_window(d, b))))
    _check_rows(sum(g * len(ii) for _, g, *_, ii, _ in blocks), f"edge index pairs at b={b}")
    keys = []
    for same, g, pa, pb, sa, sb, nb, ii, jj in blocks:
        t = np.arange(g, dtype=np.int64)[:, None]
        i, j = sa + ii + pa * t, jj + pb * t
        j += sb - nb * (j >= nb)  # both terms of j are below nb: one subtraction wraps it
        key = i << 32 | j
        # between two circles i < j always holds
        keys.append(key[i < j] if same else key.ravel())
    keys = np.concatenate(keys)
    keys.sort(kind="stable")
    edges = np.empty((len(keys), 2), dtype=np.intp)
    np.right_shift(keys, 32, out=edges[:, 0])
    np.bitwise_and(keys, 0xFFFFFFFF, out=edges[:, 1])
    return edges


def build_graph(config: PointConfig, b: float, eps: float | None = None) -> DistanceGraph:
    """Distance graph on the configuration's points for the interval [1, b].

    The configuration's radii are taken as given (any eps shifts are the
    caller's responsibility); eps is recorded on the graph, whose
    constructor checks it against the annulus being nonempty.
    """
    check_width(b)
    if eps is None:
        eps = default_eps(b)
    coords = (c for n, r in config.circles for k in range(n)
              for c in (r * math.sin(2.0 * math.pi * k / n), r * math.cos(2.0 * math.pi * k / n)))
    points = np.fromiter(coords, np.float64, count=2 * config.point_count).reshape(-1, 2)
    return DistanceGraph(points, _circulant_edges(config, points, b), b, eps)


def graph_from_points(points, b: float) -> DistanceGraph:
    """Distance graph on arbitrary points, same [1, b] edge rule.

    Escape hatch for fixed embeddings (unit-distance gadgets and test
    graphs); the annulus pipelines always go through PointConfig. Points
    are read, and b checked, as DistanceGraph does; b = 1 gives
    unit-distance graphs. A coordinate of magnitude COORD_LIMIT or more, and
    more than MAX_GRAPH_ROWS pair distances, are refused before the pass.
    """
    points = _pairs(points, Real, np.float64)
    if np.abs(points).max(initial=0.0) >= COORD_LIMIT:
        raise ValueError(f"need coordinates of magnitude < 2**500, got {np.abs(points).max()}")
    _check_rows(len(points) ** 2, "pair distances")
    ii, jj = np.nonzero(_in_window(pair_distances(points, points), b))
    keep = ii < jj
    return DistanceGraph(points, np.column_stack((ii[keep], jj[keep])), b)


def vertex_table(template: str, n: int, k: int = 1) -> np.ndarray:
    """n x k object array: row i, column c - 1 is template.format(v=i + 1, c=c,
    x=i * k + c), with v the vertex's 1-based label and x its color c literal.

    Fields are bare {v}, {c} and {x}; {v:>4} or {v!r} fills as {v} does. The
    template is parsed once, each field's labels are made once per table,
    and each cell is one join of the literal text and its labels.
    """
    values = {"v": np.repeat(np.arange(1, n + 1), k), "c": np.tile(np.arange(1, k + 1), n),
              "x": np.arange(1, n * k + 1)}
    columns = []
    for literal, field, _, _ in string.Formatter().parse(template):
        if literal:
            columns.append(itertools.repeat(literal))
        if field is not None:
            columns.append([str(x) for x in values[field].tolist()])
    cells = ["".join(t) for t in itertools.islice(zip(*columns), n * k)]
    return np.array(cells, dtype=object).reshape(n, k)


def row_texts(rows: np.ndarray, *parts: tuple[np.ndarray, int]):
    """Text of the rows of an index array, one chunk per EXPORT_CHUNK rows.

    rows holds vertex indices: edge rows (i, j), or vertex rows (i,) from
    np.arange(n)[:, None]. Each part is (table, column): an n x k table, all
    of one k, read at the vertex in that column of the row. For each row and
    each of the k table columns the parts' pieces are written in order. The
    tables are laid end to end once; each chunk is one intp index array, one
    gather and one join.
    """
    k = parts[0][0].shape[1]
    cells = np.concatenate([table.ravel() for table, _ in parts])
    columns = [column for _, column in parts]
    # base[c, t]: the cell of part t at vertex 0 and table column c
    base = np.cumsum([0] + [table.size for table, _ in parts])[:-1] + np.arange(k)[:, None]
    for start in range(0, len(rows), EXPORT_CHUNK):
        run = rows[start : start + EXPORT_CHUNK]
        index = np.empty((len(run), k, len(parts)), dtype=np.intp)
        np.add((run[:, columns] * k)[:, None, :], base, out=index)
        yield "".join(cells[index].ravel().tolist())


def dimacs_chunks(g: DistanceGraph):
    """export_dimacs's text in pieces of at most EXPORT_CHUNK edges."""
    yield f"p edge {g.n} {len(g.edges)}\n"
    head, tail = vertex_table("e {v} ", g.n), vertex_table("{v}\n", g.n)
    yield from row_texts(g.edges, (head, 0), (tail, 1))


def export_dimacs(g: DistanceGraph) -> str:
    """DIMACS graph format, 1-indexed, edges in stored order: (i asc, then j asc)
    for a graph from build_graph or graph_from_points."""
    return "".join(dimacs_chunks(g))


def config_from_json(text: str) -> tuple[PointConfig, float, float]:
    """Parse {"circles": [{"n", "r"}, ...], "b", "eps"}; a bad field raises ValueError."""
    payload = json.loads(text)
    try:
        circles = tuple(CircleSpec(c["n"], c["r"]) for c in payload["circles"])
        b, eps = payload["b"], payload["eps"]
    except KeyError as exc:
        raise ValueError(f"config lacks field {exc.args[0]!r}") from exc
    for v in (b, eps):
        if type(v) not in (int, float):  # json reads true and false as bool, not int
            raise ValueError(f"b and eps must be JSON numbers, got {v!r}")
    config, b, eps = PointConfig(circles), float(b), float(eps)
    if not (1.0 < b < math.inf and 0.0 <= eps < (b - 1.0) / 2.0):
        raise ValueError(f"need 1 < b < inf and 0 <= eps < (b-1)/2, got b={b}, eps={eps}")
    return config, b, eps
