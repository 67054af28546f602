import math

import numpy as np
import pytest

from schauderlab.degiorgi import (
    DELTA_CEILING,
    DeGiorgiParams,
    calibrate_delta,
    data_norm,
    default_tau,
    gamma_exponent,
    linf_bound,
    no_spike_verify,
    normalize_solution,
    training_ratio,
    truncation_sequence,
)
from schauderlab.domain_grid import ball_region, make_grid
from schauderlab.errors import (
    CalibrationRequiredError,
    GridTooCoarseError,
    InadmissibleExponentsError,
    PreconditionFailureError,
)
from schauderlab.field_calculus import Field, VecField
from schauderlab.elliptic_solver import CoefficientField, DiscreteSolution, EllipticProblem, solve_dirichlet
from schauderlab.generators import sup_bound_problem
from schauderlab.norm_engine import lp_norm


def constant_solution(grid, c, p=2.0, q=4.0):
    prob = EllipticProblem(
        A=CoefficientField.identity(grid),
        f=Field.zeros(grid),
        F=VecField.zeros(grid),
        g=Field.full(grid, c),
        p=p,
        q=q,
    )
    return solve_dirichlet(prob)


def _no_spike(sol, params):
    """no_spike_verify on a solution and the data norm of its problem."""
    return no_spike_verify(sol.u, data_norm(sol, params), params)


def spike_solution(grid, c):
    """u = c at the origin and 0 elsewhere, with zero data; not a solve."""
    zero = Field.zeros(grid)
    prob = EllipticProblem(A=CoefficientField.identity(grid), f=zero, F=VecField.zeros(grid), g=zero)
    values = np.zeros(grid.shape)
    values[(grid.m // 2,) * grid.n] = c
    return DiscreteSolution(u=Field(grid, values), problem=prob)


def test_gamma_hand_value():
    gamma = gamma_exponent(3, 2.0, 4.0, 6.0)
    assert math.isclose(gamma, 1.0 / 6.0, rel_tol=1e-12)


def test_gamma_large_exponent_limit():
    gamma = gamma_exponent(3, 1e12, 1e12, 6.0)
    assert math.isclose(gamma, 2.0 / 3.0, rel_tol=1e-9)


def test_gamma_inadmissible_p():
    with pytest.raises(InadmissibleExponentsError) as err:
        gamma_exponent(3, 1.5, 4.0, 6.0)
    assert err.value.failing_term == "p"


def test_gamma_wrong_tau_3d():
    with pytest.raises(InadmissibleExponentsError):
        gamma_exponent(3, 2.0, 4.0, 5.0)


def test_gamma_monotone_in_p_q():
    tau = 6.0
    ps = np.linspace(1.8, 20.0, 12)
    qs = np.linspace(3.5, 20.0, 12)
    for q in (4.0, 8.0):
        gammas = [gamma_exponent(3, p, q, tau) for p in ps]
        assert all(b >= a - 1e-15 for a, b in zip(gammas, gammas[1:]))
    for p in (2.0, 5.0):
        gammas = [gamma_exponent(3, p, q, tau) for q in qs]
        assert all(b >= a - 1e-15 for a, b in zip(gammas, gammas[1:]))


def test_default_tau_2d_satisfies_constraints():
    p, q = 2.0, 4.0
    tau = default_tau(2, p, q)
    assert tau > 2 * p / (p - 1) and tau > 2 * q / (q - 2)
    gamma_exponent(2, p, q, tau)  # must be admissible


def test_params_validation():
    with pytest.raises(ValueError):
        DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.8, R=0.5)
    with pytest.raises(ValueError):
        DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=2)
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0)
    s1, s2 = params.series_sums
    g = params.gamma
    assert s2 == pytest.approx(sum((1 + g) ** -i for i in range(200)), rel=1e-8)
    assert s1 == pytest.approx(sum(i * (1 + g) ** -i for i in range(400)), rel=1e-6)


def test_trace_zero_solution(grid129):
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3)
    trace = truncation_sequence(constant_solution(grid129, 0.0).u, params)
    assert np.all(trace.E == 0.0)
    assert trace.monotone()


def test_trace_constant_half():
    # oracle by direct summation: E_0 = (1/4) area(B_1), E_1 = 0 at b_1 = 1/2
    grid = make_grid(2, 1.0, 129)
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3)
    trace = truncation_sequence(constant_solution(grid, 0.5).u, params)
    assert abs(trace.E[0] / (0.25 * np.pi) - 1.0) < 0.01
    assert trace.E[1] <= 1e-20  # solver rounding keeps it at the floor
    np.testing.assert_array_equal(trace.b, [0.0, 0.5, 0.75, 0.875])
    np.testing.assert_array_equal(trace.r, [1.0, 0.75, 0.625, 0.5625])


def test_trace_requires_resolvable_ladder(grid65):
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3)
    with pytest.raises(GridTooCoarseError):
        truncation_sequence(constant_solution(grid65, 0.0).u, params)


def test_trace_sign_variants(grid129):
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3)
    sol = constant_solution(grid129, -0.6)
    plus = truncation_sequence(sol.u, params, sign="plus")
    minus = truncation_sequence(sol.u, params, sign="minus")
    auto = truncation_sequence(sol.u, params, sign="auto")
    assert np.all(plus.E == 0.0)
    assert minus.E[0] > 0.0
    assert auto.sign == "minus"


def test_level_count_chebyshev(grid129, rng):
    from schauderlab.generators import random_problem

    params = DeGiorgiParams(n=2, p=4.0, q=8.0, r=0.5, R=1.0, k_max=3)
    sol = solve_dirichlet(random_problem(grid129, rng))
    scale = 0.9 / max(np.abs(sol.u.values).max(), 1e-12)
    trace = truncation_sequence(sol.scaled(scale).u, params)
    # discrete Chebyshev: |{v_{k+1} > 0}| h^n <= 2^{2(k+1)} E_k
    for k, count in enumerate(trace.level_counts):
        assert count * grid129.h**2 <= 4.0 ** (k + 1) * trace.E[k] * (1 + 1e-12)


def test_no_spike_trivial_zero(grid129):
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3, delta=0.25)
    report = _no_spike(constant_solution(grid129, 0.0), params)
    assert report.verified


def test_no_spike_near_threshold(grid129):
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3, delta=0.999)
    c = 1.0 - 1e-6
    sol = constant_solution(grid129, c)
    if np.pi * c**2 <= params.delta:  # precondition E_0 <= delta
        report = _no_spike(sol, params)
        assert report.plus_verified
    else:
        with pytest.raises(PreconditionFailureError):
            _no_spike(sol, params)


def test_no_spike_requires_calibration(grid129):
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3)
    with pytest.raises(CalibrationRequiredError):
        _no_spike(constant_solution(grid129, 0.0), params)


def test_no_spike_data_norm_precondition(grid129):
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3, delta=0.5)
    prob = EllipticProblem(
        A=CoefficientField.identity(grid129),
        f=Field.full(grid129, 5.0),
        F=VecField.zeros(grid129),
        g=Field.zeros(grid129),
    )
    with pytest.raises(PreconditionFailureError):
        _no_spike(solve_dirichlet(prob), params)


def test_data_norm_scales_with_the_data(grid129):
    # the degiorgi command scales pass 1's data norm by theta instead of
    # measuring the scaled data again
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3)
    sol = solve_dirichlet(sup_bound_problem(grid129, np.random.default_rng([3, 0])))
    norm = data_norm(sol, params)
    outer = ball_region(grid129, 0.0, params.R)
    assert norm == lp_norm(sol.problem.f, 2.0, outer) > 0.0  # F = 0 in this family
    for theta in (0.3, 2.5):
        assert data_norm(sol.scaled(theta), params) == pytest.approx(theta * norm, rel=1e-13)


def test_calibrated_ensemble_verifies(grid129):
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3)
    sols = [solve_dirichlet(sup_bound_problem(grid129, np.random.default_rng([4, k]))) for k in range(8)]
    delta, bound = calibrate_delta([training_ratio(sol, params) for sol in sols], params)
    # this family never comes near a spike: the clamp below 1 binds
    assert bound > 1.0
    assert delta == 1.0 - 1e-9 == params.delta
    for sol in sols:
        normalized, theta = normalize_solution(sol, params)
        assert theta > 0
        report = _no_spike(normalized, params)
        assert report.verified
        trace = truncation_sequence(normalized.u, params, sign="auto")
        assert trace.monotone()
        assert not math.isnan(trace.fitted_exponent)
        assert trace.fitted_exponent >= 1.0 + params.gamma / 2


@pytest.mark.parametrize("c", [1.0, 3.7, 1e-3])
def test_calibrate_delta_unclamped_spike(grid129, c):
    # sup = c and ||u||_2 = c h on B_R, so the bound is h^2, far below the clamp
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3)
    sol = spike_solution(grid129, c)
    delta, bound = calibrate_delta([training_ratio(sol, params)], params)
    assert bound == pytest.approx(grid129.h**2, rel=1e-12)
    assert np.nextafter(np.nextafter(bound, 0.0), 0.0) <= delta <= bound < DELTA_CEILING
    denom = lp_norm(sol.u, 2, ball_region(grid129, 0.0, params.R))  # zero f and F
    assert math.sqrt(delta) * c / denom <= 1.0  # the calibration check passes at delta


def test_calibrate_delta_rejects_zero_data_member(grid129):
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3)
    with pytest.raises(PreconditionFailureError, match="member 1"):
        calibrate_delta([training_ratio(spike_solution(grid129, c), params) for c in (1.0, 0.0)], params)
    assert params.delta is None


def test_calibrate_delta_rejects_empty_ensemble():
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3)
    with pytest.raises(ValueError):
        calibrate_delta([], params)


def test_normalization_scale_equivariance(grid129):
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3, delta=0.3)
    sols = [solve_dirichlet(sup_bound_problem(grid129, np.random.default_rng([6, k]))) for k in range(2)]
    sol = sols[0]
    n1, theta1 = normalize_solution(sol, params)
    n2, theta2 = normalize_solution(sol.scaled(10.0), params)
    assert theta2 == pytest.approx(theta1 / 10.0, rel=1e-12)
    assert np.abs(n1.u.values - n2.u.values).max() < 1e-12


def test_linf_bound_report(grid129):
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3, delta=0.25)
    sol = constant_solution(grid129, 0.2)
    report = linf_bound(sol, params)
    assert report.lhs == pytest.approx(0.2, abs=1e-10)
    assert report.ratio <= 1.0
    assert report.extra["delta"] == 0.25
    # rhs equals delta^{-1/2} when the data norms sum to one
    outer = ball_region(grid129, 0.0, 1.0)
    u_norm = lp_norm(sol.u, 2, outer)
    scaled = sol.scaled(1.0 / u_norm)
    report1 = linf_bound(scaled, params)
    assert report1.rhs_total == pytest.approx(1.0 / math.sqrt(0.25), rel=1e-12)


def test_linf_bound_zero_solution(grid129):
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3, delta=0.25)
    report = linf_bound(constant_solution(grid129, 0.0), params)
    assert report.lhs == 0.0 and report.ratio == 0.0


def test_linf_bound_across_singular_family():
    # one calibrated delta covers the whole singular-forcing family
    from schauderlab.generators import radial_singular_problem

    grid = make_grid(2, 1.0, 129)
    params = DeGiorgiParams(n=2, p=4.0, q=8.0, r=0.5, R=1.0, k_max=3)
    sols = [
        solve_dirichlet(radial_singular_problem(grid, s)[0]) for s in (0.3, 0.5, 0.8)
    ]
    calibrate_delta([training_ratio(sol, params) for sol in sols], params)
    for sol in sols:
        report = linf_bound(sol, params)
        assert report.ratio <= 1.0 + 1e-9  # bound holds with the frozen delta


def test_trace_summary(grid129):
    params = DeGiorgiParams(n=2, p=2.0, q=4.0, r=0.5, R=1.0, k_max=3, delta=0.5)
    trace = truncation_sequence(constant_solution(grid129, 0.6).u, params)
    assert trace.monotone()
