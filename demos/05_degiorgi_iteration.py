"""The De Giorgi truncation iteration, end to end.

Calibrates the smallness threshold delta on a training ensemble, normalizes
every solution into the small regime, and drives the nested level-set
energies E_k to zero superlinearly -- the computable core of the L2-to-sup
bound.
"""

import numpy as np

from schauderlab import DeGiorgiParams, calibrate_delta, data_norm, gamma_exponent, linf_bound, make_grid, no_spike_verify, normalize_solution, solve_dirichlet, training_ratio, truncation_sequence
from schauderlab.degiorgi import DELTA_CEILING
from schauderlab.generators import sup_bound_problem

print("== the iteration gain gamma ==")
print("gamma(n=3, tau=6, p=2, q=4) =", gamma_exponent(3, 2.0, 4.0, 6.0), "(= 1/6)")

grid = make_grid(2, 1.0, 129)
params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3)
print(f"2d configuration: tau = {params.tau:.3f}, gamma = {params.gamma:.3f}")

print("\n== calibrating delta on a 12-instance training ensemble ==")
sols = [solve_dirichlet(sup_bound_problem(grid, np.random.default_rng([7, k]))) for k in range(12)]
delta, bound = calibrate_delta([training_ratio(s, params) for s in sols], params)
print(f"frozen delta = {delta:.6g}")
print(f"closed-form bound min (denom/sup)^2 = {bound:.4f}; the clamp below 1 {'binds' if bound > DELTA_CEILING else 'does not bind'}")

print("\n== one normalized trace ==")
normalized, theta = normalize_solution(sols[0], params)
trace = truncation_sequence(normalized.u, params, sign="auto")
print(f"theta = {theta:.4f}, side = {trace.sign}")
for k in range(params.k_max + 1):
    print(f"  k={k}  b_k={trace.b[k]:.4f}  r_k={trace.r[k]:.4f}  E_k={trace.E[k]:.3e}")
print(f"fitted decay exponent: {trace.fitted_exponent:.2f} "
      f"(superlinear means > 1; gain target 1 + gamma = {1 + params.gamma:.2f})")

print("\n== the no-spike implication and the sup bound ==")
normalized = [normalize_solution(s, params)[0] for s in sols]
ok = all(no_spike_verify(n.u, data_norm(n, params), params).verified for n in normalized)
print("no-spike conclusion verified on all instances:", ok)
rep = linf_bound(sols[0], params)
print(f"sup bound: lhs {rep.lhs:.4f} <= {rep.rhs_total:.4f} (ratio {rep.ratio:.3f})")
