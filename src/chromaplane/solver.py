"""Exact k-colorability by branch and bound.

The search is DSATUR-style: always branch on an uncolored vertex with the
most distinctly colored neighbors (ties by degree, then index), try only
colors up to one past the highest color used so far, and fail fast when
any uncolored vertex has every color in its neighborhood. A greedily
found clique is pre-colored with distinct colors to break color symmetry.
All decisions are deterministic for a fixed seed.

The search relabels vertices by rank, sorted by (-degree, index), so the
lowest set bit of any mask of ranks is its highest-degree, lowest-index
vertex. The clique search runs on the same rank masks, so one adjacency
build serves both. The masks come from distgraph.neighbor_masks on the
edge array relabeled by rank: numpy sets both ends of each edge in an
n x n bool matrix (n^2 bytes, 6.8 MB at 2,600 vertices) and packs each
row into one int, so no set-up step loops over edges in Python.

The search state is masks of ranks only: seen[c] holds the ranks with a
neighbor colored c, and the count of colors each rank sees is bit-sliced
over k.bit_length() planes, stored highest first (cnt[-1 - p] holds bit p
of every count), so the branch rank comes from one AND per plane, in list
order. Coloring rank v with c adds radj[v] & ~seen[c] to seen[c] and
ripple-adds it into a copy of the planes, from the list's end. It pushes
one frame, the tuple (v, its bit, c, and from before: the number of colors
allowed, seen[c] and the planes). Undo pops it, restores those three and
puts v back in the uncolored mask; v's next color is scanned for from
c + 1. A colorable answer is rebuilt from the clique and the frames. No
step loops over neighbors.

The CNF and LP exports are generators of text chunks (cnf_chunks,
lp_chunks); every line, per edge or per vertex, comes from
distgraph.row_texts, one gather from n x k per-vertex string tables per
chunk of rows. export_cnf and export_lp are their joins.
"""
import random
import time
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .distgraph import DistanceGraph, neighbor_masks, row_texts, vertex_table
from .geom import check_count

COLORABLE = "colorable"
NOT_COLORABLE = "not_colorable"

_BUDGET_CHECK_INTERVAL = 2048

_CLIQUE_RESTARTS = 200

_PROGRESS_INTERVAL = 10.0  # seconds between progress(nodes, elapsed) calls

# CNF and LP exports of more n x k cells are refused before any table is made; at the cap, on a
# 2-vCPU Xeon, case 1 at n = 5 (k = 104,857) writes its 93 MB LP at 520 MB max RSS.
MAX_EXPORT_CELLS = 2**20


class BudgetExhausted(Exception):
    """Time budget ran out before the search reached an exact answer."""

    def __init__(self, search_nodes: int, elapsed: float):
        super().__init__(f"budget exhausted after {search_nodes} nodes ({elapsed:.1f}s)")
        self.search_nodes = search_nodes
        self.elapsed = elapsed


@dataclass(frozen=True)
class KColorQuery:
    graph: DistanceGraph
    k: int
    time_budget: float | None = None

    def __post_init__(self):
        check_count(self.k, "k", low=1)
        if not (self.time_budget is None or self.time_budget > 0):  # NaN fails too
            raise ValueError(f"need time_budget None or > 0, got {self.time_budget!r}")


@dataclass(frozen=True)
class ColoringOutcome:
    status: str
    assignment: tuple[int, ...] | None
    search_nodes: int
    elapsed: float

    @property
    def colorable(self) -> bool:
        return self.status == COLORABLE


def _rank_masks(n: int, edges: np.ndarray) -> tuple[list[int], list[int]]:
    """rank[v]: v's position in the order (-degree, index); radj[r]: rank r's neighbor ranks."""
    deg = np.bincount(edges.ravel(), minlength=n)
    rank = np.empty(n, dtype=np.intp)
    rank[np.lexsort((np.arange(n), -deg))] = np.arange(n)
    return rank.tolist(), neighbor_masks(n, rank[edges])


def _rank_clique(radj: list[int], rank: list[int], seed: int) -> list[int]:
    """greedy_clique on rank-space masks, _CLIQUE_RESTARTS starts; returns ranks.

    The lowest set bit of a rank mask is its highest-degree, lowest-index
    vertex, so each extension step is one bit pick.
    """
    n = len(radj)
    rng = random.Random(seed)
    best: list[int] = []
    for it in range(_CLIQUE_RESTARTS):
        start = 0 if it == 0 else rank[rng.randrange(n)]
        clique = [start]
        cand = radj[start]
        while cand:
            r = (cand & -cand).bit_length() - 1
            clique.append(r)
            cand &= radj[r]
        if len(clique) > len(best):
            best = clique
    return best


def greedy_clique(adj: list[int], seed: int = 0) -> list[int]:
    """Greedy max clique: extend by highest-degree candidate, _CLIQUE_RESTARTS restarts.

    Ties go to the lowest index. Restart 0 starts from the highest-degree
    vertex, the rest from random vertices drawn from a seeded generator, so
    the result is reproducible.
    """
    n = len(adj)
    if n == 0:
        return []
    w = -(-n // 8)
    packed = np.frombuffer(b"".join(a.to_bytes(w, "little") for a in adj), np.uint8)
    bits = np.unpackbits(packed.reshape(n, w), axis=1, bitorder="little")
    edges = np.transpose(np.nonzero(np.triu(bits, 1)))  # (i, j) for each bit j > i of adj[i]
    rank, radj = _rank_masks(n, edges)
    by_rank = np.argsort(rank).tolist()
    return [by_rank[r] for r in _rank_clique(radj, rank, seed)]


def k_colorable(query: KColorQuery, seed: int = 0, progress=None) -> ColoringOutcome:
    """Decide whether the graph admits a proper coloring with <= k colors.

    Returns an exact verdict with a certificate assignment when colorable;
    the assignment is checked with verify_coloring before it is returned.
    Raises BudgetExhausted if query.time_budget runs out; a budget cut is
    never reported as not_colorable. `progress(nodes, elapsed)` is invoked
    roughly every _PROGRESS_INTERVAL seconds when supplied.
    """
    # no search uses more than n colors: state for k > n colors would go unused
    g, n = query.graph, query.graph.n
    k = min(int(query.k), n)  # a Python int, as k.bit_length() needs, for a numpy k too
    start = time.monotonic()
    if n == 0:
        return ColoringOutcome(COLORABLE, (), 0, 0.0)

    # the search runs on ranks: rank r is the r-th vertex by (-degree, index)
    rank, radj = _rank_masks(n, g.edges)
    clique = _rank_clique(radj, rank, seed)
    if len(clique) > k:
        return ColoringOutcome(NOT_COLORABLE, None, 0, time.monotonic() - start)

    seen = [0] * k  # seen[c]: ranks with a neighbor colored c
    cnt = [0] * k.bit_length()  # cnt[-1 - p]: bit p of each rank's count of colors seen
    unc = (1 << n) - 1  # uncolored ranks
    for idx, r in enumerate(clique):
        unc ^= 1 << r
        seen[idx] = new = radj[r]
        p = -1
        while new:  # ripple-add one to the count of each rank in new, lowest plane first
            cnt[p], new = cnt[p] ^ new, cnt[p] & new
            p -= 1

    nodes = 0
    next_check = _BUDGET_CHECK_INTERVAL
    next_progress = start + _PROGRESS_INTERVAL
    budget = query.time_budget

    def tick():
        nonlocal next_check, next_progress
        next_check = nodes + _BUDGET_CHECK_INTERVAL
        now = time.monotonic()
        if budget is not None and now - start > budget:
            raise BudgetExhausted(nodes, now - start)
        if progress is not None and now >= next_progress:
            progress(nodes, now - start)
            next_progress = now + _PROGRESS_INTERVAL

    # one frame per colored rank, pushed as it gets its color: (rank, its bit,
    # its color, and from before: limit, seen[color] and cnt)
    stack = []
    limit = min(len(clique) + 1, k)  # colors allowed: to one past the highest used, at most k
    while unc:
        # pick the most saturated uncolored rank, lowest rank on ties. One that
        # sees all k colors is a dead end: it is picked first and has no color
        # to try, so the search backs up without counting a node
        top = unc
        for plane in cnt:
            t = top & plane
            if t:
                top = t
        bit = top & -top
        v, c = bit.bit_length() - 1, 0
        while c < limit and seen[c] & bit:
            c += 1
        while c == limit:  # no color left: undo the last colored rank, try its next color
            if not stack:
                return ColoringOutcome(NOT_COLORABLE, None, nodes, time.monotonic() - start)
            v, bit, c, limit, s, cnt = stack.pop()
            seen[c] = s
            unc |= bit
            c += 1
            while c < limit and seen[c] & bit:
                c += 1
        nodes += 1
        if nodes >= next_check:
            tick()
        unc ^= bit
        s = seen[c]
        stack.append((v, bit, c, limit, s, cnt))
        new = radj[v] & ~s
        seen[c] = s | new
        cnt = cnt[:]
        p = -1
        while new:  # the ripple add, on a copy: the frame keeps the old planes
            cnt[p], new = cnt[p] ^ new, cnt[p] & new
            p -= 1
        if c + 1 == limit < k:  # c was a new color, so one more is allowed
            limit += 1

    color = {r: c for c, r in enumerate(clique)}  # rank -> color: the clique's, then the frames'
    color.update((frame[0], frame[2]) for frame in stack)
    assignment = tuple(color[r] for r in rank)
    if not (verify_coloring(g, assignment) and max(assignment) < k):
        raise RuntimeError("search produced an improper coloring")
    return ColoringOutcome(COLORABLE, assignment, nodes, time.monotonic() - start)


def verify_coloring(graph: DistanceGraph, assignment) -> bool:
    """True iff the assignment colors every vertex and no edge is monochromatic.

    A color is an integer >= 0, a Python or numpy one; a bool is not one.
    """
    if len(assignment) != graph.n or not all(
            isinstance(c, Integral) and not isinstance(c, bool) and c >= 0 for c in assignment):
        return False
    a, e = np.asarray(assignment), graph.edges
    return bool(np.all(a[e[:, 0]] != a[e[:, 1]]))


def chromatic_number(graph: DistanceGraph) -> int:
    """Least k with the graph k-colorable, counting k up from 1; 0 for no vertices.

    Every k below the seeded clique's size is refuted with 0 search nodes.
    """
    if graph.n == 0:
        return 0
    k = 1
    while not k_colorable(KColorQuery(graph, k)).colorable:
        k += 1
    return k


class ExportTooLarge(ValueError):
    """An export whose per-vertex tables pass MAX_EXPORT_CELLS."""


def _export_size(graph: DistanceGraph, k: int) -> int:
    """graph.n, once k >= 1 and n * k is within MAX_EXPORT_CELLS."""
    check_count(k, "k", low=1)
    if graph.n * k > MAX_EXPORT_CELLS:
        raise ExportTooLarge(f"need at most {MAX_EXPORT_CELLS} vertices x k, got {graph.n * k}")
    return graph.n


def cnf_chunks(graph: DistanceGraph, k: int):
    """export_cnf's text in pieces of at most EXPORT_CHUNK edges or vertices.

    A clause line is k "{x} " cells beside one "0\n". A conflict line
    "-a -b 0" is split as "-a -" + "b 0" so each half is taken from a
    per-vertex table.
    """
    n = _export_size(graph, k)
    yield f"p cnf {n * k} {n + len(graph.edges) * k}\n"
    clauses = np.hstack((vertex_table("{x} ", n, k), vertex_table("0\n", n)))
    yield from row_texts(np.arange(n)[:, None], (clauses, 0))
    heads, tails = vertex_table("-{x} -", n, k), vertex_table("{x} 0\n", n, k)
    yield from row_texts(graph.edges, (heads, 0), (tails, 1))


def export_cnf(graph: DistanceGraph, k: int) -> str:
    """DIMACS CNF for k-colorability.

    Variable (i-1)*k + c says vertex i gets color c (both 1-indexed).
    One at-least-one-color clause per vertex and one binary conflict
    clause per (edge, color); at-most-one-per-vertex clauses are omitted
    since extra colors on a vertex never help satisfiability.
    """
    return "".join(cnf_chunks(graph, k))


def lp_chunks(graph: DistanceGraph, k: int):
    """export_lp's text in pieces of at most EXPORT_CHUNK edges or vertices.

    Each per-vertex section is an n x 1 vertex_table whose template holds
    all k of a vertex's lines (the cover line names all k). A conflict line
    " conflict_a_b_c: x_a_c + x_b_c <= 1" is split at its vertex labels into
    four pieces, each from an n x k per-vertex table.
    """
    n = _export_size(graph, k)
    colors = range(1, k + 1)
    vertices = np.arange(n)[:, None]

    def rows(template):
        return row_texts(vertices, (vertex_table(template, n), 0))

    yield "Minimize\n obj: " + " + ".join(f"{c} y{c}" for c in colors) + "\nSubject To\n"
    yield from rows(" cover_{v}: " + " + ".join(f"x_{{v}}_{c}" for c in colors) + " >= 1\n")
    name = np.repeat(vertex_table(" conflict_{v}_", n), k, axis=1)  # n strings, not n * k
    first = vertex_table("{v}_{c}: x_", n, k)
    second = vertex_table("{v}_{c} + x_", n, k)
    end = vertex_table("{v}_{c} <= 1\n", n, k)
    yield from row_texts(graph.edges, (name, 0), (first, 1), (second, 0), (end, 1))
    yield from rows("".join(f" link_{{v}}_{c}: x_{{v}}_{c} - y{c} <= 0\n" for c in colors))
    yield "Binary\n"
    yield from rows("".join(f" x_{{v}}_{c}\n" for c in colors))
    yield "".join(f" y{c}\n" for c in colors) + "End\n"


def export_lp(graph: DistanceGraph, k: int) -> str:
    """CPLEX-LP feasibility model for k-colorability.

    Binary x_i_c picks vertex i's color, binary y_c flags color c as used;
    the y objective breaks color-permutation symmetry. Constraint families:
    cover (each vertex needs a color), conflict (edge endpoints cannot
    share a color), link (a used color turns its flag on).
    """
    return "".join(lp_chunks(graph, k))
