"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion. Run with -s to see the lines."""

import math
import time

import numpy as np

from schauderlab.caccioppoli import caccioppoli_check, empirical_constant
from schauderlab.cli_reports import ExperimentConfig, run
from schauderlab.degiorgi import (
    DeGiorgiParams,
    calibrate_delta,
    data_norm,
    gamma_exponent,
    no_spike_verify,
    normalize_solution,
    training_ratio,
    truncation_sequence,
)
from schauderlab.domain_grid import ball_region, box_region, make_grid
from schauderlab.field_calculus import Field, difference_quotient, mollify, summation_by_parts_residual
from schauderlab.elliptic_solver import solve_dirichlet
from schauderlab.generators import (
    harmonic_saddle_problem,
    radial_singular_problem,
    random_problem,
    sine_forcing_problem,
    sup_bound_problem,
)
from schauderlab.liouville_lab import (
    DISCRIMINATION_SCALES,
    GrowthFamily,
    counterexample_generator,
    derivative_energy_scan,
    verify_growth,
)
from schauderlab.norm_engine import lp_norm
from schauderlab.schauder_harness import (
    SchauderConfig,
    blowup_sequence,
    measure_pointwise_exponent,
    regularize_approximate,
    schauder_ratio,
)


def report(number, name, passed, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_01_solver_convergence():
    start = time.time()
    errors = []
    for m in (65, 129, 257):
        grid = make_grid(2, 1.0, m)
        problem, exact = sine_forcing_problem(grid)
        sol = solve_dirichlet(problem)
        errors.append(float(np.abs(sol.u.values - exact.values).max()))
    elapsed = time.time() - start
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = all(3.5 <= r <= 4.5 for r in ratios) and elapsed <= 60.0
    report(1, "solver_convergence", ok,
           f"ratios {ratios[0]:.3f}, {ratios[1]:.3f} in [3.5, 4.5]; {elapsed:.1f}s <= 60s")


def test_criterion_02_exact_discrete_harmonicity():
    grid = make_grid(2, 1.0, 129)
    problem, exact = harmonic_saddle_problem(grid)
    sol = solve_dirichlet(problem)
    err = float(np.abs(sol.u.values - exact.values).max())
    report(2, "exact_discrete_harmonicity", err <= 1e-10, f"max error {err:.3e} <= 1e-10")


def test_criterion_03_difference_quotient_lemma():
    start = time.time()
    grid = make_grid(2, 1.0, 65)
    rng = np.random.default_rng(2024)
    box = box_region(grid)
    inner = ball_region(grid, 0.0, 0.5)
    outer = ball_region(grid, 0.0, 0.9)
    bound_ok = identity_ok = True
    for trial in range(100):
        u = Field(grid, rng.standard_normal(grid.shape))
        axis = trial % 2
        steps = 1 + trial % 4
        h = steps * grid.h * (1 if trial % 3 else -1)
        d = difference_quotient(u, axis, h)
        lhs = lp_norm(d, 2, inner).value
        rhs = (2.0 / abs(h)) * lp_norm(u, 2, outer).value
        bound_ok &= lhs <= rhs * (1 + 1e-12)

        phi_vals = rng.standard_normal(grid.shape)
        w = abs(steps)
        for ax in range(2):
            lo = (slice(None),) * ax + (slice(0, w),)
            hi = (slice(None),) * ax + (slice(-w, None),)
            phi_vals[lo] = 0.0
            phi_vals[hi] = 0.0
        phi = Field(grid, phi_vals)
        res = summation_by_parts_residual(u, phi, axis, h)
        scale = lp_norm(u, 2, box).value * lp_norm(phi, 2, box).value
        identity_ok &= res <= 1e-12 * scale
    elapsed = time.time() - start
    ok = bound_ok and identity_ok and elapsed <= 10.0
    report(3, "difference_quotient_lemma", ok,
           f"100 fields: bound exact, identity <= 1e-12 relative; {elapsed:.1f}s <= 10s")


def test_criterion_04_caccioppoli():
    grid = make_grid(2, 1.0, 257)
    problem, _ = harmonic_saddle_problem(grid)
    sol = solve_dirichlet(problem)
    rep = caccioppoli_check(sol, 0.5, 0.95)
    lhs_ok = abs(rep.lhs / math.sqrt(math.pi / 8) - 1.0) < 0.01

    constants = {}
    for m in (129, 257):
        g = make_grid(2, 1.0, m)
        sols = [solve_dirichlet(random_problem(g, np.random.default_rng([2024, k]))) for k in range(50)]
        constants[m], _ = empirical_constant(
            [(caccioppoli_check(s, 0.5, 0.95), (s.problem.A.lam, s.problem.A.Lam, s.problem.A.L)) for s in sols]
        )
    drift = abs(constants[257] / constants[129] - 1.0)
    ok = lhs_ok and drift <= 0.10
    report(4, "caccioppoli", ok,
           f"lhs {rep.lhs:.5f} vs sqrt(pi/8) within 1%; ensemble max ratio "
           f"{constants[129]:.4f} -> {constants[257]:.4f} drift {drift:.1%} <= 10%")


def test_criterion_05_degiorgi():
    gamma = gamma_exponent(3, 2.0, 4.0, 6.0)
    formula_ok = math.isclose(gamma, 1.0 / 6.0, rel_tol=1e-12)

    grid = make_grid(2, 1.0, 129)
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3)
    sols = [solve_dirichlet(sup_bound_problem(grid, np.random.default_rng([7, k]))) for k in range(50)]
    calibrate_delta([training_ratio(sol, params) for sol in sols], params)
    verified = monotone = True
    min_fit = float("inf")
    for sol in sols:
        normalized, _ = normalize_solution(sol, params)
        verified &= no_spike_verify(normalized.u, data_norm(normalized, params), params).verified
        trace = truncation_sequence(normalized.u, params, sign="auto")
        monotone &= trace.monotone()
        fit = trace.fitted_exponent
        min_fit = min(min_fit, fit if not math.isnan(fit) else -math.inf)
    fits_ok = min_fit >= 1.0 + params.gamma / 2
    ok = formula_ok and verified and monotone and fits_ok
    report(5, "degiorgi", ok,
           f"gamma == 1/6; 50 instances verified={verified}, monotone={monotone}, "
           f"min fitted {min_fit:.2f} >= {1 + params.gamma / 2:.3f}")


def test_criterion_06_liouville():
    saddle = GrowthFamily(lambda x, y: x**2 - y**2, gamma=2.0, m=257)
    scan1 = derivative_energy_scan(saddle, 1)
    slope_ok = abs(scan1.slope - 4.0) <= 0.05 * 4.0
    scan0 = derivative_energy_scan(saddle, 0)
    scan3 = derivative_energy_scan(saddle, 3)
    floor_ok = bool(np.all(scan3.energies <= 1e-12 * scan0.energies))

    exp_fam = GrowthFamily(
        counterexample_generator((1.0, 0.0), (0.0, 1.0)), gamma=10.0,
        scales=DISCRIMINATION_SCALES, m=257,
    )
    gate_ok = exp_fam.harmonic_gate()
    growth_rejected = True
    for gamma in (0.5, 1.0, 2.0, 4.0, 7.0, 10.0):
        exp_fam.gamma = gamma
        growth_rejected &= not verify_growth(exp_fam)["verified"]
    ok = slope_ok and floor_ok and gate_ok and growth_rejected
    report(6, "liouville", ok,
           f"slope {scan1.slope:.4f} ~ 4 within 5%; k=3 at floor; exp gate passed, "
           f"growth rejected for all gamma <= 10")


def test_criterion_07_schauder_threshold():
    grid = make_grid(2, 1.0, 257)
    problem, _ = radial_singular_problem(grid, 0.5)
    sol = solve_dirichlet(problem)
    measured = measure_pointwise_exponent(sol.u, (0.0, 0.0), 0.03, 0.4)
    exponent_ok = abs(measured - 1.5) <= 0.05 * 1.5

    alpha = 0.7 * 0.75  # 0.7 * threshold for (p, q) = (4, 8)
    maxima = {}
    for m in (129, 257):
        g = make_grid(2, 1.0, m)
        cfg = SchauderConfig(order=0, alpha=alpha, p=4.0, q=8.0, r=0.3, R=0.8)
        ratios = []
        for k in range(12):
            rng = np.random.default_rng([2024, k])
            prob = random_problem(g, rng, rough_alpha=0.6, p=4.0, q=8.0)
            ratios.append(schauder_ratio(solve_dirichlet(prob), cfg).ratio)
        maxima[m] = max(ratios)
        assert all(math.isfinite(r) for r in ratios)
    drift = abs(maxima[257] / maxima[129] - 1.0)
    ok = exponent_ok and drift <= 0.15
    report(7, "schauder_threshold", ok,
           f"exponent {measured:.4f} ~ 1.5 within 5%; max ratio "
           f"{maxima[129]:.4f} -> {maxima[257]:.4f} drift {drift:.1%} <= 15%")


def test_criterion_08_blowup():
    grid = make_grid(2, 1.0, 129)
    u = Field(grid, grid.radius_from(np.zeros(2)) ** 0.5)
    cfg = SchauderConfig(order=0, alpha=0.5, p=4.0, q=8.0, r=0.2, R=0.8)
    record = blowup_sequence(u, cfg, steps=2)
    step = record.steps[0]
    centre = tuple(step.v.grid.m // 2 for _ in range(2))
    pair_ok = step.x == (0.0, 0.0) or step.y == (0.0, 0.0)
    origin_ok = step.v.values[centre] == 0.0
    semi_ok = step.v_seminorm <= 1.05
    fit_ok = abs(record.growth_exponent - 0.5) <= 0.05
    ok = pair_ok and origin_ok and semi_ok and fit_ok
    report(8, "blowup", ok,
           f"pair includes the singular node; v(0)=0; [v]={step.v_seminorm:.4f}<=1.05; "
           f"fit {record.growth_exponent:.4f} ~ 0.5 within 10%")


def test_criterion_09_mollification():
    grid65 = make_grid(2, 1.0, 65)
    rng = np.random.default_rng(99)
    box = box_region(grid65)
    contraction_ok = True
    for _ in range(100):
        g = Field(grid65, rng.standard_normal(grid65.shape))
        smooth = mollify(g, 4 * grid65.h)
        contraction_ok &= lp_norm(smooth, 2, box).value <= lp_norm(g, 2, box).value

    grid = make_grid(2, 1.0, 257)
    problem = random_problem(grid, np.random.default_rng(21), rough_alpha=0.4, beta=0.2)
    h = grid.h
    record = regularize_approximate(problem, [8 * h, 4 * h, 2 * h * 1.01])
    ok = contraction_ok and record.decreasing
    gaps = [row["h1_gap"] for row in record.rows]
    report(9, "mollification_approximation", ok,
           f"contraction exact on 100 fields; H1 gaps {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    digests = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig(
            command="caccioppoli", out_dir=tmp_path / sub, seed=31, resolution=65,
            params={"ensemble": 5},
        )
        run(cfg)
        digests.append((tmp_path / sub / "caccioppoli_reports.csv").read_bytes())
    ok = digests[0] == digests[1]
    report(10, "cli_determinism", ok, "same seed and config give byte-identical CSV")
