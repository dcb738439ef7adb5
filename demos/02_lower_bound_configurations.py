"""Finite point configurations that force colors on the annulus.

Points evenly spaced on circles just inside the annulus A_b induce a
finite distance graph. When the exact solver proves that graph cannot be
colored with k-1 colors, the annulus needs at least k colors, and the
plane needs at least k+3: every proper coloring of G_[1,b] has a small
disk showing three colors, and none of those three can reappear anywhere
in the annulus around it.

Full-size configurations (hundreds of points per circle) were built for
industrial solvers; here we shrink them to desk scale by keeping every
20th point, which preserves the lower-bound logic (a subgraph's
refutation is still a refutation).
"""
from chromaplane.annulus import (
    annulus_verdict,
    case_graph,
    lift_lower_bound,
    lower_bound_config,
    threshold_bisect,
)
from chromaplane.distgraph import export_dimacs
from chromaplane.solver import NOT_COLORABLE

print("=== case 1 at desk scale: 65 points per circle, b = 1.35 ===")
cfg = lower_bound_config(1, b=1.35, n_override=65)
print("circles:", [(c.n, round(c.r, 9)) for c in cfg.circles])
g = case_graph(1, b=1.35, n_override=65)
print(f"graph: {g.n} vertices, {len(g.edges)} edges")

out = annulus_verdict(g, k=4)
print(f"3-colorable? {out.status} ({out.search_nodes} search nodes)")
if out.status == NOT_COLORABLE:
    print(f"annulus needs >= 4 colors at b=1.35, so the plane needs >= {lift_lower_bound(4)}")

print()
print("=== where does the desk-scale configuration start needing 4 colors? ===")
b_star = threshold_bisect(1, 65, 4, b_lo=1.25, b_hi=1.4, tol=1e-3)
print(f"empirical threshold b* = {b_star:.4f}")
print("(the full 1300-point configuration achieves 1.28599; subsets can only do worse)")

print()
print("=== the graphs export to standard formats ===")
small = case_graph(1, b=1.3, n_override=6)
text = export_dimacs(small)
print("\n".join(text.splitlines()[:10]))
print(f"... ({len(text.splitlines()) - 10} more edge lines)")
