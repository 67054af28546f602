"""Caccioppoli energy inequalities, measured.

The gradient's interior L2 norm is controlled by the function's L2 norm on
a larger ball plus data norms. For the exact harmonic saddle both sides
have closed forms; over a random certified ensemble the realized ratios
stay under one stable empirical constant.
"""

import numpy as np

from schauderlab import caccioppoli_check, empirical_constant, make_grid, solve_dirichlet, truncated_caccioppoli
from schauderlab.generators import harmonic_saddle_problem, random_problem

print("== closed-form instance: u = x^2 - y^2, (r, R) = (1/2, 0.95) ==")
grid = make_grid(2, 1.0, 257)
problem, _ = harmonic_saddle_problem(grid)
sol = solve_dirichlet(problem)
report = caccioppoli_check(sol, 0.5, 0.95)
print(f"lhs  ||grad u||_L2(B_r)        = {report.lhs:.5f}   (sqrt(pi/8) = {np.sqrt(np.pi / 8):.5f})")
for name, value in report.rhs_components.items():
    print(f"rhs  {name:12s} = {value:.5f}")
print(f"realized ratio: {report.ratio:.4f}")

print("\n== empirical constant over a certified random ensemble ==")
grid = make_grid(2, 1.0, 65)
sols = [solve_dirichlet(random_problem(grid, np.random.default_rng([5, k]))) for k in range(10)]
constant, reports = empirical_constant(
    [(caccioppoli_check(s, 0.5, 0.95), (s.problem.A.lam, s.problem.A.Lam, s.problem.A.L)) for s in sols]
)
print(f"10 instances, common certificate lam={reports[0].extra['lam']:.3f}, "
      f"L={reports[0].extra['L']:.3f}")
print("per-instance ratios:", np.array2string(np.array([r.ratio for r in reports]), precision=3))
print(f"empirical constant (max ratio): {constant:.4f}")

print("\n== truncated variant at the median level ==")
rep = truncated_caccioppoli(sols[0], float(np.median(sols[0].u.values)), "plus", 0.4, 0.8)
print(f"lhs = {rep.lhs:.5f}, rhs parts = { {k: round(v, 5) for k, v in rep.rhs_components.items()} }")
print(f"level-set nodes: {rep.extra['level_set_nodes']}, ratio {rep.ratio:.4f}")
