"""Interior Holder estimates and the sharp exponent threshold.

The radial family with forcing -|x|^{-s} has the exact solution
|x|^{2-s} / ((2-s)(n-s)): its Holder exponent at the origin sits exactly at
the estimate's threshold 2 - n/p. Estimate ratios stay finite and
refinement-stable for admissible exponents.
"""

import numpy as np

from schauderlab import SchauderConfig, admissible_alpha, make_grid, measure_pointwise_exponent, schauder_ratio, solve_dirichlet
from schauderlab.generators import radial_singular_problem, random_problem

print("== admissible exponent thresholds ==")
threshold = admissible_alpha(2, 4.0, 8.0, order=0)
print(f"order 0, (p, q) = (4, 8):  alpha <= min(2 - n/p, 1 - n/q) = {threshold}")
threshold1 = admissible_alpha(2, 4.0, order=1)
print(f"order 1, p = 4:            alpha <= 1 - n/p = {threshold1}")

print("\n== the singular radial family attains the threshold ==")
grid = make_grid(2, 1.0, 257)
problem, exact = radial_singular_problem(grid, 0.5)
sol = solve_dirichlet(problem)
print("solver error vs closed form:", np.abs(sol.u.values - exact.values).max())
measured = measure_pointwise_exponent(sol.u, (0.0, 0.0), 0.03, 0.4)
print(f"measured Holder exponent at the origin: {measured:.4f}  (2 - s = 1.5)")

print("\n== estimate ratios on rough-Holder coefficients ==")
cfg = SchauderConfig(order=0, alpha=0.7 * threshold, p=4.0, q=8.0, r=0.3, R=0.8)
for m in (65, 129):
    g = make_grid(2, 1.0, m)
    ratios = []
    for k in range(6):
        prob = random_problem(g, np.random.default_rng([3, k]), rough_alpha=0.6)
        ratios.append(schauder_ratio(solve_dirichlet(prob), cfg).ratio)
    print(f"m={m:4d}  max ratio {max(ratios):.4f} at alpha = {cfg.alpha:.3f}")
