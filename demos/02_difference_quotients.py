"""Difference quotients: the discrete surrogate for weak derivatives.

Shows the exact summation-by-parts identity, the L2 bound with constant
2/|h|, and the O(h) approach of quotients to the true derivative.
"""

import numpy as np

from schauderlab import (
    Field,
    ball_region,
    box_region,
    difference_quotient,
    lp_norm,
    make_grid,
    summation_by_parts_residual,
)

grid = make_grid(2, 1.0, 65)
rng = np.random.default_rng(0)

print("== summation by parts is exact for aligned steps ==")
u = Field(grid, rng.standard_normal(grid.shape))
phi_vals = rng.standard_normal(grid.shape)
phi_vals[:3, :] = phi_vals[-3:, :] = 0.0
phi_vals[:, :3] = phi_vals[:, -3:] = 0.0
phi = Field(grid, phi_vals)
res = summation_by_parts_residual(u, phi, 0, 2 * grid.h)
scale = lp_norm(u, 2, box_region(grid)) * lp_norm(phi, 2, box_region(grid))
print(f"relative residual: {res / scale:.2e}  (machine precision)")

print("\n== quotient L2 bound: ||D_h u|| <= (2/|h|) ||u|| ==")
inner, outer = ball_region(grid, 0.0, 0.5), ball_region(grid, 0.0, 0.9)
for steps in (1, 2, 4):
    h = steps * grid.h
    d = difference_quotient(u, 0, h)
    lhs = lp_norm(d, 2, inner)
    rhs = 2.0 / h * lp_norm(u, 2, outer)
    print(f"|h| = {steps}h:  {lhs:9.3f} <= {rhs:9.3f}")

print("\n== quotients approach the derivative at rate O(h) ==")
for m in (33, 65, 129):
    g = make_grid(2, 1.0, m)
    smooth = Field.from_function(g, lambda x, y: np.sin(2 * x) * np.cos(y))
    exact = Field.from_function(g, lambda x, y: 2 * np.cos(2 * x) * np.cos(y))
    d = difference_quotient(smooth, 0, g.h)
    gap = Field(g, d.values - exact.values, d.valid)
    err = lp_norm(gap, 2, ball_region(g, 0.0, 0.5))
    print(f"m={m:4d}  ||D_h u - du||_2 = {err:.5f}")
