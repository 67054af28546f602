"""Grids, ball masks, and radial cutoffs: the geometric substrate.

Every interior estimate in this package is measured on balls strictly
inside the box (-1, 1)^n. This script shows the node geometry, how ball
masks track the continuum area under refinement, and the certified
gradient bound of the smoothed cutoff.
"""

import numpy as np

from schauderlab import ball_region, cutoff, gradient, make_grid, nested_radii, truncation_levels

print("== a grid whose corners and origin are exact nodes ==")
grid = make_grid(2, 1.0, 9)
print("axis:", np.array2string(grid.axis, precision=3))
print("spacing h =", grid.h)

print("\n== strict ball masks vs continuum area ==")
for m in (33, 65, 129, 257):
    g = make_grid(2, 1.0, m)
    region = ball_region(g, 0.0, 0.5)
    frac = region.count / g.num_nodes
    target = np.pi * 0.25 / 4
    print(f"m={m:4d}  node fraction {frac:.5f}  target {target:.5f}  "
          f"error {abs(frac / target - 1):.2%}")

print("\n== nested radius and truncation-level ladders ==")
print("r_k:", nested_radii(0.5, 1.0, 4))
print("b_k:", truncation_levels(4))

print("\n== cutoff: 1 on B_r, 0 outside B_R, certified slope ==")
g = make_grid(2, 1.0, 257)
for r, R in ((0.5, 1.0), (0.3, 0.6)):
    eta = cutoff(g, r, R)
    slope = gradient(eta).magnitude().values.max()
    print(f"r={r}, R={R}:  max |grad eta| = {slope:.4f}  <=  2/(R-r) = {2 / (R - r):.4f}")
