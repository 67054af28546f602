import math
from dataclasses import replace

import numpy as np
import pytest

from schauderlab.domain_grid import ball_region, cutoff, make_grid
from schauderlab.errors import (
    DataRegularityMissingError,
    InadmissibleExponentsError,
    InsufficientShellsError,
    NoBlowupPairError,
)
from schauderlab.field_calculus import Field, VecField, gradient
from schauderlab.elliptic_solver import CoefficientField, EllipticProblem, solve_dirichlet
from schauderlab.generators import (
    radial_singular_problem,
    random_problem,
)
from schauderlab.schauder_harness import (
    SchauderConfig,
    admissible_alpha,
    blowup_sequence,
    bootstrap_ckalpha,
    growth_fit,
    measure_pointwise_exponent,
    regularize_approximate,
    rescale_estimate,
    rescale_problem,
    schauder_ratio,
)
from schauderlab.schauder_harness import _differentiated_source, restrict_problem_data


def test_admissible_alpha_order0():
    assert admissible_alpha(2, 4.0, 8.0, order=0) == pytest.approx(0.75)


def test_admissible_alpha_order1():
    assert admissible_alpha(2, 4.0, order=1) == pytest.approx(0.5)


def test_admissible_alpha_cap_reported():
    # the q-term keeps the order-0 threshold below 1, so it, not the open
    # bound alpha < 1, decides admissibility
    threshold = admissible_alpha(2, 100.0, 100.0, order=0)
    assert threshold == pytest.approx(0.98) and threshold < 1.0
    SchauderConfig(order=0, alpha=0.9, p=100.0, q=100.0, r=0.3, R=0.8).check_admissible(2)
    with pytest.raises(InadmissibleExponentsError):
        SchauderConfig(order=0, alpha=0.99, p=100.0, q=100.0, r=0.3, R=0.8).check_admissible(2)


def test_admissible_alpha_invalid_exponents():
    with pytest.raises(InadmissibleExponentsError):
        admissible_alpha(2, 1.0, 8.0, order=0)
    with pytest.raises(InadmissibleExponentsError):
        admissible_alpha(2, 1.5, order=1)


def test_schauder_ratio_zero_problem(grid65):
    prob = EllipticProblem(
        A=CoefficientField.identity(grid65), f=Field.zeros(grid65),
        F=VecField.zeros(grid65), g=Field.zeros(grid65), p=4.0, q=8.0,
    )
    cfg = SchauderConfig(order=0, alpha=0.5, p=4.0, q=8.0, r=0.3, R=0.8)
    report = schauder_ratio(solve_dirichlet(prob), cfg)
    assert report.lhs == pytest.approx(0.0, abs=1e-9)
    assert report.ratio == pytest.approx(0.0, abs=1e-6)


def test_schauder_ratio_inadmissible_alpha(rng, grid65):
    sol = solve_dirichlet(random_problem(grid65, rng))
    cfg = SchauderConfig(order=0, alpha=0.9, p=4.0, q=8.0, r=0.3, R=0.8)
    with pytest.raises(InadmissibleExponentsError):
        schauder_ratio(sol, cfg)


def test_schauder_order1_requires_certificate(grid65):
    prob = EllipticProblem(
        A=CoefficientField.identity(grid65), f=Field.zeros(grid65),
        F=VecField.zeros(grid65), g=Field.zeros(grid65), p=4.0, q=8.0,
    )
    cfg = SchauderConfig(order=1, alpha=0.4, p=4.0, q=8.0, r=0.3, R=0.8)
    with pytest.raises(DataRegularityMissingError):
        schauder_ratio(solve_dirichlet(prob), cfg)


def test_radial_family_threshold_exponent():
    grid = make_grid(2, 1.0, 257)
    prob, exact = radial_singular_problem(grid, 0.5)
    sol = solve_dirichlet(prob)
    assert np.abs(sol.u.values - exact.values).max() < 5e-3
    measured = measure_pointwise_exponent(sol.u, (0.0, 0.0), 0.03, 0.4)
    assert abs(measured - 1.5) <= 0.075  # 5% of 1.5


def test_radial_family_ratio_finite_for_admissible_alpha():
    grid = make_grid(2, 1.0, 129)
    prob, _ = radial_singular_problem(grid, 0.5, p=3.0, q=8.0)
    # alpha below the threshold 2 - s = 1.5 capped by min(2-n/p, 1-n/q)
    cfg = SchauderConfig(order=0, alpha=0.6, p=3.0, q=8.0, r=0.3, R=0.8)
    report = schauder_ratio(solve_dirichlet(prob), cfg)
    assert math.isfinite(report.ratio) and report.ratio > 0


@pytest.mark.parametrize("n", [2, 3])
def test_differentiated_source_closed_form(n):
    # A affine along axis i and F quadratic along it, so their central
    # differences are exact: wherever d_i F is valid, the source of the
    # equation for d_i u, which bootstrap_ckalpha reads, is
    # d_i A grad u + f e_i + d_i F in closed form
    grid = make_grid(n, 1.0, 17)
    x = np.stack(np.meshgrid(*(grid.axis,) * n, indexing="ij"))
    rng = np.random.default_rng(n)
    matrix = (slice(None), slice(None)) + (None,) * n
    A0, S = 2.0 * np.eye(n) + 0.1 * rng.uniform(-1, 1, (n, n)), 0.1 * rng.uniform(-1, 1, (n, n))
    c = rng.uniform(-1, 1, n)[(slice(None),) + (None,) * n]
    grad_u = rng.standard_normal((n,) + grid.shape)
    f = Field(grid, np.cos(x[0]) + x[-1] ** 2)
    for i in range(n):
        A = CoefficientField(grid, A0[matrix] + S[matrix] * x[i])
        F = VecField(grid, c * x[i] ** 2 + np.sin(x[(i + 1) % n]))
        source, valid = _differentiated_source(A, i, grad_u, f, F)
        want = np.einsum("ab,b...->a...", S, grad_u) + 2.0 * c * x[i]
        want[i] += f.values
        inside = np.zeros(grid.shape, dtype=bool)
        inside[(slice(None),) * i + (slice(1, -1),)] = True
        assert np.array_equal(valid, inside)
        assert np.abs(source - want)[:, valid].max() <= 1e-13, i


# -- blow-up -------------------------------------------------------------------


@pytest.fixture(scope="module")
def cusp_record():
    grid = make_grid(2, 1.0, 129)
    u = Field(grid, grid.radius_from(np.zeros(2)) ** 0.5)
    cfg = SchauderConfig(order=0, alpha=0.5, p=4.0, q=8.0, r=0.2, R=0.8)
    return blowup_sequence(u, cfg, steps=2)


def test_blowup_record_invariants(cusp_record):
    for step in cusp_record.steps:
        assert abs(np.linalg.norm(step.xi) - 1.0) <= 1e-12
        assert step.separation > 0
        centre = tuple(step.v.grid.m // 2 for _ in range(2))
        assert step.v.values[centre] == 0.0


def test_blowup_argmax_includes_singular_point(cusp_record):
    assert cusp_record.steps[0].x == (0.0, 0.0)
    assert cusp_record.steps[0].level == pytest.approx(1.0, rel=1e-12)


def test_blowup_window_seminorm_normalized(cusp_record):
    step = cusp_record.steps[0]
    assert step.v_seminorm <= 1.05


def test_blowup_growth_fit(cusp_record):
    assert abs(cusp_record.growth_exponent - 0.5) <= 0.05
    for step in cusp_record.steps:
        if step.fit is not None:
            assert not step.fit.violation


def test_blowup_companion_separation(cusp_record):
    # |v(xi) - v(0)| >= 1/2 up to interpolation slack
    step = cusp_record.steps[0]
    wgrid = step.v.grid
    idx = tuple(int(round((c + wgrid.half_width) / wgrid.h)) for c in step.xi)
    assert abs(step.v.values[idx]) >= 0.5 - 0.05


def test_blowup_vw_proximity(cusp_record):
    for step in cusp_record.steps:
        assert step.vw_gap <= step.vw_gap_bound * 1.05 + step.interp_tol


def test_blowup_separations_shrink(cusp_record):
    seps = [s.separation for s in cusp_record.steps]
    assert all(b <= a for a, b in zip(seps, seps[1:]))


def test_blowup_takes_widest_tied_pair(cusp_record):
    # oracle: every pair of the order-0 search ball, eta u, within 1e-9 of
    # the max quotient; step 0 must use the widest of them
    grid = make_grid(2, 1.0, 129)
    W = cutoff(grid, 0.2, 0.8).values * grid.radius_from(np.zeros(2)) ** 0.5
    mask = ball_region(grid, 0.0, 0.8).mask
    coords, vals = grid.axis[np.argwhere(mask)], W[mask]

    def row(i):
        d = np.linalg.norm(coords[i + 1 :] - coords[i], axis=1)
        return d, np.abs(vals[i + 1 :] - vals[i]) / d**0.5

    level = max(row(i)[1].max() for i in range(len(vals) - 1))
    widest = max(
        d[q >= level * (1 - 1e-9)].max(initial=0.0) for d, q in map(row, range(len(vals) - 1))
    )
    assert level == pytest.approx(1.0, rel=1e-12)
    step = cusp_record.steps[0]
    assert step.separation == pytest.approx(widest, rel=1e-12)
    assert step.separation == pytest.approx(0.19887, abs=1e-5)
    assert all(type(c) is float for c in step.x + step.y + step.xi)


def test_blowup_constant_rejected(grid65):
    cfg = SchauderConfig(order=0, alpha=0.5, p=4.0, q=8.0, r=0.2, R=0.8)
    with pytest.raises(NoBlowupPairError):
        blowup_sequence(Field.full(grid65, 1.0), cfg, steps=1)


def test_blowup_rejects_fewer_than_one_step(grid65):
    # steps = 0 is an invalid argument, not a finding about the field
    cfg = SchauderConfig(order=0, alpha=0.5, p=4.0, q=8.0, r=0.2, R=0.8)
    x = grid65.coords()[0]
    with pytest.raises(ValueError, match="steps") as caught:
        blowup_sequence(Field(grid65, np.sqrt(np.abs(x))), cfg, steps=0)
    assert not isinstance(caught.value, NoBlowupPairError)


def test_blowup_sign_changing_step_is_not_constant(grid65):
    # |u| is 1 everywhere, yet u jumps by 2 across x = 1e-4: twice the jump,
    # and so twice the level, of the {0, 1} step
    cfg = SchauderConfig(order=0, alpha=0.5, p=4.0, q=8.0, r=0.2, R=0.8)
    x = grid65.coords()[0]
    signed = blowup_sequence(Field(grid65, np.where(x >= 1e-4, 1.0, -1.0)), cfg, steps=1)
    step01 = blowup_sequence(Field(grid65, np.where(x >= 1e-4, 1.0, 0.0)), cfg, steps=1)
    assert step01.steps[0].level == pytest.approx(5.657, abs=1e-3)
    assert signed.steps[0].level == pytest.approx(2 * step01.steps[0].level, rel=1e-12)
    assert not signed.steps[0].degenerate


def test_blowup_order1_linear_cancellation(grid129):
    u = Field.from_function(grid129, lambda x, y: 2.0 * x - y + 0.3)
    cfg = SchauderConfig(order=1, alpha=0.5, p=4.0, q=8.0, r=0.5, R=0.9)
    record = blowup_sequence(u, cfg, steps=2)
    step = record.steps[0]
    assert step.degenerate
    assert np.abs(step.v.values).max() == 0.0
    assert step.fit.compliant_trivially


def test_blowup_order1_smooth_gradient_pinned(grid129):
    u = Field.from_function(grid129, lambda x, y: x**2 * y + 0.5 * np.sin(2 * x) * y)
    cfg = SchauderConfig(order=1, alpha=0.5, p=4.0, q=8.0, r=0.5, R=0.9)
    record = blowup_sequence(u, cfg, steps=1)
    step = record.steps[0]
    assert not step.degenerate
    g = gradient(step.v)
    centre = tuple(step.v.grid.m // 2 for _ in range(2))
    assert np.abs(g.components[(slice(None),) + centre]).max() < 5e-3


def test_growth_fit_cusp_exponent():
    grid = make_grid(2, 2.0, 65)
    v = Field.from_function(grid, lambda x, y: (x**2 + y**2) ** 0.25)
    fit = growth_fit(v, 0.5, order=0)
    assert abs(fit.exponent - 0.5) <= 0.025
    assert not fit.violation


def test_growth_fit_zero_profile():
    grid = make_grid(2, 2.0, 65)
    fit = growth_fit(Field.zeros(grid), 0.5)
    assert fit.compliant_trivially and not fit.violation
    assert math.isnan(fit.exponent)


def test_growth_fit_flags_violation():
    grid = make_grid(2, 2.0, 65)
    v = Field.from_function(grid, lambda x, y: np.sqrt(x**2 + y**2))
    fit = growth_fit(v, 0.5, order=0)
    assert fit.violation


def test_growth_fit_needs_three_nonzero_shells_in_the_unit_ball():
    # v vanishes inside |x| = 0.95, so no shell within the fit radius 1 has
    # a nonzero peak; the slope is not taken from the outer shells instead
    grid = make_grid(2, 2.0, 65)
    v = Field(grid, np.maximum(grid.radius_from(np.zeros(2)) - 0.95, 0.0))
    with pytest.raises(InsufficientShellsError, match="within radius 1.0"):
        growth_fit(v, 0.5)


# -- mollification-approximation -------------------------------------------------


def test_regularize_constant_coefficients(grid129):
    # mollification of constant data is the identity: u_eps = u to solver tol
    prob = EllipticProblem(
        A=CoefficientField.from_constant(grid129, [[2.0, 0.3], [0.3, 1.0]]),
        f=Field.full(grid129, 1.0),
        F=VecField.zeros(grid129),
        g=Field.zeros(grid129),
    )
    record = regularize_approximate(prob, [6 * grid129.h, 4 * grid129.h])
    for row in record.rows:
        assert row["h1_gap"] <= 1e-7
    assert record.l2_bound_ok and record.ellipticity_ok


def test_regularize_rough_coefficients_converges(grid129):
    prob = random_problem(grid129, np.random.default_rng(21), rough_alpha=0.4, beta=0.2)
    h = grid129.h
    record = regularize_approximate(prob, [8 * h, 4 * h, 2 * h * 1.01])
    assert record.decreasing
    assert record.l2_bound_ok
    assert record.ellipticity_ok


def test_regularize_schedule_must_decrease(grid129):
    prob = random_problem(grid129, np.random.default_rng(3))
    with pytest.raises(ValueError):
        regularize_approximate(prob, [4 * grid129.h, 4 * grid129.h])


@pytest.mark.parametrize("schedule", [[], [0.2]])
def test_regularize_schedule_needs_two_radii(grid129, schedule):
    # no rows, or one, cannot show a decreasing gap
    prob = random_problem(grid129, np.random.default_rng(3))
    with pytest.raises(ValueError, match="at least two radii"):
        regularize_approximate(prob, schedule)


def test_a_posteriori_matches_direct_ratio(grid129):
    # running the estimate on the mollified-converged solution stays within
    # 10% of the direct solution's ratio
    prob = random_problem(grid129, np.random.default_rng(31), rough_alpha=0.5, beta=0.15)
    cfg = SchauderConfig(order=0, alpha=0.5, p=4.0, q=8.0, r=0.3, R=0.7)
    direct = schauder_ratio(solve_dirichlet(prob), cfg)

    from schauderlab.field_calculus import mollify
    from schauderlab.schauder_harness import _inner_grid

    eps = 2 * grid129.h * 1.01
    j = int(0.75 * grid129.half_width / grid129.h)
    reference = solve_dirichlet(prob)
    sub, box = _inner_grid(grid129, j)
    entries = np.stack(
        [np.stack([mollify(Field(grid129, prob.A.entries[a, b]), eps).values[box] for b in range(2)]) for a in range(2)]
    )
    approx_prob = EllipticProblem(
        A=CoefficientField(sub, entries),
        f=Field(sub, mollify(prob.f, eps).values[box]),
        F=VecField(sub, np.stack([mollify(prob.F.component(a), eps).values[box] for a in range(2)])),
        g=Field(sub, reference.u.values[box]),
        p=prob.p, q=prob.q, certificates=dict(prob.certificates),
    )
    approx = solve_dirichlet(approx_prob)
    smooth_ratio = schauder_ratio(approx, cfg).ratio
    assert abs(smooth_ratio / direct.ratio - 1.0) <= 0.10


# -- bootstrap and rescaling -----------------------------------------------------


def test_bootstrap_cubic_exact(grid129):
    # discrete solution reproduces the harmonic cubic exactly; its third
    # derivatives are constant so the top seminorm vanishes
    gb = Field.from_function(grid129, lambda x, y: x**3 - 3 * x * y**2)
    prob = EllipticProblem(
        A=CoefficientField.identity(grid129), f=Field.zeros(grid129),
        F=VecField.zeros(grid129), g=gb, p=4.0, q=8.0,
        certificates={"F_lipschitz": 0.0, "F_sup": 0.0},
    )
    report = bootstrap_ckalpha(prob, 3, 0.4, 0.25, 0.8)
    assert report.consistent
    for level in report.levels:
        for rep in level:
            assert math.isfinite(rep.ratio)
    from schauderlab.norm_engine import ck_alpha_norm, derivative_field, multiindices, lp_norm

    sol = solve_dirichlet(prob)
    inner = ball_region(grid129, 0.0, 0.25)
    full = ck_alpha_norm(sol.u, 3, 0.4, inner)
    sups = sum(
        lp_norm(derivative_field(sol.u, beta), np.inf, inner)
        for order in range(4)
        for beta in multiindices(2, order)
    )
    assert full == pytest.approx(sups, abs=1e-7)  # top seminorms vanish


def test_bootstrap_zero_solution(grid129):
    prob = EllipticProblem(
        A=CoefficientField.identity(grid129), f=Field.zeros(grid129),
        F=VecField.zeros(grid129), g=Field.zeros(grid129), p=4.0, q=8.0,
        certificates={"F_lipschitz": 0.0, "F_sup": 0.0},
    )
    report = bootstrap_ckalpha(prob, 2, 0.4, 0.25, 0.8)
    for level in report.levels:
        for rep in level:
            assert rep.ratio == pytest.approx(0.0, abs=1e-8)


def test_bootstrap_smooth_problem_consistent(grid129):
    prob = random_problem(grid129, np.random.default_rng(31), beta=0.15)
    report = bootstrap_ckalpha(prob, 2, 0.4, 0.25, 0.8)
    assert report.consistent
    assert math.isfinite(report.chained_constant)


@pytest.mark.parametrize("k", [2, 3])
def test_bootstrap_assembly_bound_is_the_explicit_sum(grid129, k):
    # sup|u| + sum_i ||d_i u||_{C^{1,a}} at k = 2, and
    # sup|u| + sum_i (sup|d_i u| + sum_j ||d_j d_i u||_{C^{1,a}}) at k = 3,
    # added left to right, bit for bit
    from schauderlab.field_calculus import central_difference
    from schauderlab.norm_engine import ck_alpha_norm, lp_norm

    prob = random_problem(grid129, np.random.default_rng(31), beta=0.15)
    report = bootstrap_ckalpha(prob, k, 0.4, 0.25, 0.8)
    u = solve_dirichlet(prob).u
    inner = ball_region(grid129, 0.0, 0.25)
    total = lp_norm(u, np.inf, inner)
    for i in range(2):
        u_i = central_difference(u, i)
        if k == 2:
            total += ck_alpha_norm(u_i, 1, 0.4, inner)
            continue
        total += lp_norm(u_i, np.inf, inner)
        for j in range(2):
            total += ck_alpha_norm(central_difference(u_i, j), 1, 0.4, inner)
    assert report.assembly_bound == total
    assert report.consistent


def test_bootstrap_requires_certificates(grid129):
    prob = random_problem(grid129, np.random.default_rng(5))
    prob = replace(prob, A=CoefficientField(grid129, prob.A.entries))
    with pytest.raises(DataRegularityMissingError):
        bootstrap_ckalpha(prob, 2, 0.4, 0.25, 0.8)


def test_bootstrap_requires_holder_exponent_at_least_alpha(grid129):
    # the order-1 estimate at alpha needs A in C^{0,alpha}; a C^{0,0.3}
    # certificate does not cover alpha = 0.45
    prob = random_problem(grid129, np.random.default_rng(3), rough_alpha=0.3, beta=0.15)
    with pytest.raises(DataRegularityMissingError):
        bootstrap_ckalpha(prob, 2, 0.45, 0.25, 0.8)


def test_rescale_identity():
    assert rescale_estimate(3.0, 1.0) == 3.0


def test_rescale_h2_quarter():
    assert rescale_estimate(3.0, 0.5) == 12.0


def test_rescale_invalid_scale():
    with pytest.raises(ValueError):
        rescale_estimate(1.0, 1.5)


def test_rescale_paired_experiment(grid129):
    # zoomed solve on the unit grid vs direct solve on the subgrid: the
    # commensurate lattice makes both sides the same discrete system
    prob = random_problem(grid129, np.random.default_rng(17), beta=0.15)
    reference = solve_dirichlet(prob)
    j = 32  # t = j h = 0.5
    t = j * grid129.h
    zoomed = rescale_problem(prob, (0.0, 0.0), t, reference.u, m=2 * j + 1)
    v = solve_dirichlet(zoomed)
    direct_prob, sub = restrict_problem_data(prob, reference.u, j)
    direct = solve_dirichlet(direct_prob)
    gap = np.abs(v.u.values - direct.u.values).max()
    scale = np.abs(direct.u.values).max()
    assert gap <= 0.10 * scale  # matches far tighter in practice


def _certified(problem):
    A = problem.A
    return problem.fingerprint(), A.lam, A.Lam, A.L, A.is_symmetric


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("n, m", [(2, 65), (3, 17)])
def test_identity_zoom_and_full_restriction_reproduce_the_problem(n, m, symmetric):
    # the sub-grid builder carries data unchanged when the target is the
    # whole box: same bytes, same ellipticity certificate
    from schauderlab.generators import trig_coefficient_field

    grid = make_grid(n, 1.0, m)
    rng = np.random.default_rng(41)
    data = random_problem(grid, rng)
    A = trig_coefficient_field(grid, rng, symmetric=symmetric)
    prob = EllipticProblem(A=A, f=data.f, F=data.F, g=data.g, p=data.p, q=data.q)
    zoomed = rescale_problem(prob, (0.0,) * n, 1.0, prob.g)
    restricted, _ = restrict_problem_data(prob, prob.g, m // 2)
    assert _certified(zoomed) == _certified(prob)
    assert _certified(restricted) == _certified(prob)
    for mine, parent in [
        (restricted.A.entries, prob.A.entries),
        (restricted.f.values, prob.f.values),
        (restricted.F.components, prob.F.components),
    ]:
        assert not np.shares_memory(mine, parent)


def test_rescale_problem_scalar_target_and_bad_shape():
    # a scalar x0 is shorthand for that value on every axis, as in ball_region;
    # any other shape than (n,) is rejected with a ValueError
    grid = make_grid(2, 1.0, 17)
    prob = random_problem(grid, np.random.default_rng(3))
    scalar = rescale_problem(prob, 0, 0.5, prob.g)
    assert scalar.fingerprint() == rescale_problem(prob, (0.0, 0.0), 0.5, prob.g).fingerprint()
    for bad in [(0.0,), (0.0, 0.0, 0.0), [[0.0, 0.0]]]:
        with pytest.raises(ValueError, match="components"):
            rescale_problem(prob, bad, 0.5, prob.g)


def test_commensurate_zoom_scales_the_restricted_data(grid129):
    # t = 32h with m' = 65 puts every zoom sample on an original node: A and
    # g are the restricted ones, f picks up t^2 and F picks up t
    prob = random_problem(grid129, np.random.default_rng(43))
    j = 32
    t = j * grid129.h
    zoomed = rescale_problem(prob, (0.0, 0.0), t, prob.g, m=2 * j + 1)
    restricted, _ = restrict_problem_data(prob, prob.g, j)

    def assert_close(actual, expected):
        assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()

    assert_close(zoomed.A.entries, restricted.A.entries)
    assert_close(zoomed.g.values, restricted.g.values)
    assert_close(zoomed.f.values, t**2 * restricted.f.values)
    assert_close(zoomed.F.components, t * restricted.F.components)


@pytest.fixture(scope="module")
def seed1_problem():
    grid = make_grid(2, 1.0, 129)
    prob = random_problem(grid, np.random.default_rng(1))
    return prob, solve_dirichlet(prob).u


def test_restricted_problem_keeps_its_certificates(seed1_problem):
    # a restriction samples the parent's nodes (t = 1): every bound carries
    # over unchanged, so the order-1 estimate and the bootstrap still run
    prob, reference = seed1_problem
    sub, _ = restrict_problem_data(prob, reference, 48)
    assert sub.A.lipschitz_bound == prob.A.lipschitz_bound is not None
    assert sub.certificates == prob.certificates
    report = bootstrap_ckalpha(sub, 2, 0.4, 0.1875, 0.6)
    assert report.consistent
    assert report.chained_constant == pytest.approx(2.0415, abs=1e-3)


def test_aligned_zoom_scales_its_certificates(seed1_problem):
    # t = 48h = 0.75 with m' = 97 lands on original nodes: A's Lipschitz
    # bound scales by t, f's certificates by t^2 (sup) and t^3 (Lipschitz),
    # F's by t and t^2, and the zoomed data stay under their own bounds
    prob, reference = seed1_problem
    t = 48 * prob.grid.h
    assert t == 0.75
    zoomed = rescale_problem(prob, 0.0, t, reference, m=97)
    certs = zoomed.certificates
    assert zoomed.A.lipschitz_bound == 0.75 * prob.A.lipschitz_bound
    assert certs == {
        "f_sup": t**2 * prob.certificates["f_sup"],
        "f_lipschitz": t**3 * prob.certificates["f_lipschitz"],
        "F_sup": t * prob.certificates["F_sup"],
        "F_lipschitz": t**2 * prob.certificates["F_lipschitz"],
    }
    assert np.abs(zoomed.f.values).max() <= certs["f_sup"]
    assert np.abs(zoomed.F.components).max() <= certs["F_sup"]
    assert np.abs(gradient(zoomed.f).components).max() <= certs["f_lipschitz"]


def test_zoom_scales_a_holder_certificate_by_t_alpha(grid129):
    prob = random_problem(grid129, np.random.default_rng(1), rough_alpha=0.6)
    alpha, bound = prob.A.holder
    zoomed = rescale_problem(prob, 0.0, 0.75, prob.g, m=97)
    assert zoomed.A.holder == (alpha, 0.75**alpha * bound)
    assert zoomed.A.lipschitz_bound is None


def test_a_certificate_no_zoom_can_scale_is_rejected(seed1_problem):
    prob, _ = seed1_problem
    with pytest.raises(ValueError, match="F_holder"):
        replace(prob, certificates={"F_holder": 1.0})


@pytest.mark.parametrize("t", [0.0, -0.5])
def test_rescale_problem_rejects_a_nonpositive_scale(seed1_problem, t):
    prob, reference = seed1_problem
    with pytest.raises(ValueError, match="positive"):
        rescale_problem(prob, 0.0, t, reference)
