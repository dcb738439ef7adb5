"""The exact k-colorability solver and its export formats.

The solver is a DSATUR-style branch and bound: it always colors the
vertex with the most distinctly colored neighbors, seeds the search with
a greedily found clique to break color symmetry, and backtracks the rest.
Verdicts are exact and deterministic; colorable answers come with a
certificate that is checked independently.
"""
import math

from chromaplane.distgraph import graph_from_points
from chromaplane.solver import (
    KColorQuery,
    chromatic_number,
    export_cnf,
    export_lp,
    k_colorable,
    verify_coloring,
)

# the classic seven-point unit-distance gadget: two unit rhombi sharing a
# corner, rotated so their far tips are at distance 1
O = (0.0, 0.0)
A = (1.0, 0.0)
B = (0.5, math.sqrt(3) / 2)
C = (1.5, math.sqrt(3) / 2)
phi = 2 * math.asin(1 / (2 * math.sqrt(3)))
rot = lambda p: (
    p[0] * math.cos(phi) - p[1] * math.sin(phi),
    p[0] * math.sin(phi) + p[1] * math.cos(phi),
)
spindle = graph_from_points([O, A, B, C, rot(A), rot(B), rot(C)], b=1.0)
print(f"spindle: {spindle.n} vertices, {len(spindle.edges)} unit edges")

for k in (3, 4):
    out = k_colorable(KColorQuery(spindle, k))
    print(f"k={k}: {out.status} ({out.search_nodes} nodes)")
    if out.colorable:
        print("  certificate:", out.assignment, "valid:", verify_coloring(spindle, out.assignment))

print("chromatic number:", chromatic_number(spindle))

print()
print("=== a triangle as CNF (satisfiable with 3 colors, not with 2) ===")
tri = graph_from_points([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)], b=1.1)
print(export_cnf(tri, 2))

print("=== the same triangle as an LP feasibility model ===")
print(export_lp(tri, 3))
