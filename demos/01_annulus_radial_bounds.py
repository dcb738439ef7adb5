"""Radial colorings of the annulus and the bounds table they support.

The annulus A_b has inner radius 1 and outer radius b. A radial scheme
splits it into s equal angular sectors and cycles k colors through them.
Three distances decide whether that coloring is proper for the
interval-distance graph G_[1,b]:

  d1   outer-outer diameter of one sector      (must stay below 1)
  d2   outer-inner diameter of one sector      (must stay below 1)
  gap  nearest same-color inner-circle chord   (must exceed b)

Each constraint caps b in closed form, so the best width for a scheme is
the smallest cap. This script walks the classic schemes, shows the caps,
and prints the assembled bounds table.
"""
import math

from chromaplane.annulus import (
    RadialScheme,
    radial_best,
    radial_color,
    radial_max_b_detail,
    radial_max_b_numeric,
    annulus_bounds_csv,
)

print("=== the three-color scheme on nine sectors ===")
b3, caps, binding = radial_max_b_detail(3, 9)
print(f"caps: d1 -> {caps['d1']:.6f}, d2 -> {caps['d2']:.6f}, gap -> {caps['gap']:.6f}")
print(f"maximal width b = {b3:.6f} (binding constraint: {binding})")
print(f"algebraic form sqrt(2 - 2 sin(pi/18)) = {math.sqrt(2 - 2 * math.sin(math.pi / 18)):.6f}")

scheme = RadialScheme(3, 9)
print(f"at that width the wrap-around gap equals b itself: gap = {caps['gap']:.9f}")
print("sector colors around the circle:",
      [radial_color(scheme, (s + 0.5) * scheme.alpha) for s in range(9)])

print()
print("=== best sector counts for 3..8 colors ===")
for k in range(3, 9):
    s, b = radial_best(k, 10 * k)
    print(f"k={k}: best s={s:>2}, b_max={b:.6f}")

print()
print("=== closed form vs blind numerical bisection (k=5) ===")
closed = radial_best(5, 40)[1]
numeric = radial_max_b_numeric(5, 10, n_pairs=50_000)
print(f"closed form {closed:.8f} vs sampled bisection {numeric:.8f}")
print("(the five-color bound is the golden ratio)")

print()
print("=== the annulus bounds table ===")
print(annulus_bounds_csv())
