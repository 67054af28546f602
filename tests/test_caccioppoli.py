import numpy as np
import pytest

from schauderlab.caccioppoli import (
    caccioppoli_check,
    empirical_constant,
    truncated_caccioppoli,
)
from schauderlab.domain_grid import cutoff, make_grid
from schauderlab.errors import IncompatibleEnsembleError
from schauderlab.field_calculus import Field, VecField, gradient
from schauderlab.elliptic_solver import CoefficientField, EllipticProblem, solve_dirichlet
from schauderlab.generators import harmonic_saddle_problem, random_problem


def constant_solution(grid, c):
    prob = EllipticProblem(
        A=CoefficientField.identity(grid),
        f=Field.zeros(grid),
        F=VecField.zeros(grid),
        g=Field.full(grid, c),
    )
    return solve_dirichlet(prob)


def _members(sols, r, R):
    """The per-member (report, certificate) pairs empirical_constant reads."""
    return [(caccioppoli_check(s, r, R), (s.problem.A.lam, s.problem.A.Lam, s.problem.A.L)) for s in sols]


@pytest.fixture(scope="module")
def saddle257():
    grid = make_grid(2, 1.0, 257)
    prob, _ = harmonic_saddle_problem(grid)
    return solve_dirichlet(prob)


def test_constant_solution_zero_ratio(grid65):
    report = caccioppoli_check(constant_solution(grid65, 2.0), 0.4, 0.8)
    assert report.lhs < 1e-10
    assert report.ratio == pytest.approx(0.0, abs=1e-9)


def test_saddle_closed_forms(saddle257):
    # oracle: polar integration; grad(x^2-y^2) has |.|^2 = 4 rho^2
    report = caccioppoli_check(saddle257, 0.5, 0.95)
    assert abs(report.lhs / np.sqrt(np.pi / 8) - 1.0) < 0.01
    u_part = report.rhs_components["u_over_band"] * (0.95 - 0.5)
    assert abs(u_part / np.sqrt(np.pi * 0.95**6 / 6) - 1.0) < 0.01
    assert report.rhs_components["f"] == 0.0
    assert report.rhs_components["F"] == 0.0


def test_truncated_below_minimum_is_trivial(grid65):
    sol = constant_solution(grid65, 0.5)
    report = truncated_caccioppoli(sol, 1.0, "plus", 0.4, 0.8)
    assert report.lhs == 0.0
    assert report.rhs_total == 0.0
    assert report.extra["level_set_nodes"] == 0


def test_truncated_constant_half():
    # for u = 1/2, b = 0: the truncation equals u, so the energy of eta*v
    # is carried entirely by the cutoff ramp and matches the first rhs part
    grid = make_grid(2, 1.0, 129)
    sol = constant_solution(grid, 0.5)
    report = truncated_caccioppoli(sol, 0.0, "plus", 0.5, 0.9)
    eta = cutoff(grid, 0.5, 0.9)
    hn = grid.h**2
    ramp = 0.25 * float((gradient(eta).components**2).sum() * hn)
    assert report.rhs_components["v_grad_eta"] == pytest.approx(ramp, rel=1e-12)
    assert report.rhs_components["v_grad_eta"] > 0.0
    assert report.lhs == pytest.approx(ramp, rel=1e-10)  # inequality holds with C = 1
    assert report.rhs_components["forcing"] == 0.0
    assert report.rhs_components["field_sq"] == 0.0


def test_truncated_level_sets_match_full_field(rng, grid65):
    # with b below min(u), {v > 0} covers every node where u > b -- the same
    # node set the plain variant integrates over
    from schauderlab.generators import random_problem

    sol = solve_dirichlet(random_problem(grid65, rng))
    b = float(sol.u.values.min()) - 1.0
    report = truncated_caccioppoli(sol, b, "plus", 0.4, 0.8)
    assert report.extra["level_set_nodes"] == grid65.num_nodes


def test_truncated_minus_side(grid65):
    sol = constant_solution(grid65, -0.5)
    report = truncated_caccioppoli(sol, 0.0, "minus", 0.4, 0.8)
    assert report.extra["level_set_nodes"] == grid65.num_nodes
    assert np.isfinite(report.ratio)


def test_truncated_holds_on_ensemble(grid65):
    sols = [solve_dirichlet(random_problem(grid65, np.random.default_rng([3, k]))) for k in range(6)]
    for sol in sols:
        b = float(np.median(sol.u.values))
        report = truncated_caccioppoli(sol, b, "plus", 0.4, 0.8)
        assert np.isfinite(report.ratio)
        assert all(v >= 0.0 for v in report.rhs_components.values())


def test_empirical_constant_zero_solution(grid65):
    constant, reports = empirical_constant(_members([constant_solution(grid65, 0.0)], 0.4, 0.8))
    assert constant == 0.0
    assert reports[0].ratio == 0.0


def test_empirical_constant_homogeneous(grid65):
    sols = [solve_dirichlet(random_problem(grid65, np.random.default_rng([9, k]))) for k in range(4)]
    c1, reports1 = empirical_constant(_members(sols, 0.4, 0.8))
    scaled = [s.scaled(10.0) for s in sols]
    c2, reports2 = empirical_constant(_members(scaled, 0.4, 0.8))
    assert c2 == pytest.approx(c1, rel=1e-12)
    for a, b in zip(reports1, reports2):
        assert b.ratio == pytest.approx(a.ratio, rel=1e-12)


def test_empirical_constant_mixed_grids_rejected(grid65, grid129):
    sols = [constant_solution(grid65, 1.0), constant_solution(grid129, 1.0)]
    with pytest.raises(IncompatibleEnsembleError):
        empirical_constant(_members(sols, 0.4, 0.8))


def test_empirical_constant_mixed_radii_rejected(grid65):
    sol = constant_solution(grid65, 1.0)
    members = _members([sol], 0.4, 0.8) + _members([sol], 0.3, 0.8)
    with pytest.raises(IncompatibleEnsembleError):
        empirical_constant(members)


def test_empirical_constant_empty_rejected():
    with pytest.raises(ValueError):
        empirical_constant([])


def test_empirical_constant_common_certificate(grid65):
    # every report carries the least lam and the largest Lam and L
    sols = [solve_dirichlet(random_problem(grid65, np.random.default_rng([9, k]))) for k in range(3)]
    _, reports = empirical_constant(_members(sols, 0.4, 0.8))
    for k, rep in enumerate(reports):
        assert rep.extra["instance"] == k and rep.extra["size"] == 3
        assert rep.extra["lam"] == min(s.problem.A.lam for s in sols)
        assert rep.extra["Lam"] == max(s.problem.A.Lam for s in sols)
        assert rep.extra["L"] == max(s.problem.A.L for s in sols)


def test_universality_across_textures(grid65):
    # same ellipticity envelope, different coefficient textures: constants
    # within a factor 3 of one another
    low = [solve_dirichlet(random_problem(grid65, np.random.default_rng([1, k]), beta=0.2)) for k in range(6)]
    rough = [
        solve_dirichlet(random_problem(grid65, np.random.default_rng([2, k]), beta=0.2, rough_alpha=0.5))
        for k in range(6)
    ]
    c_low, _ = empirical_constant(_members(low, 0.4, 0.8))
    c_rough, _ = empirical_constant(_members(rough, 0.4, 0.8))
    assert max(c_low, c_rough) / min(c_low, c_rough) < 3.0


def test_band_weight_monotone(saddle257):
    # shrinking R - r never decreases the first component's weight
    wide = caccioppoli_check(saddle257, 0.4, 0.9)
    narrow = caccioppoli_check(saddle257, 0.7, 0.9)
    w_wide = wide.rhs_components["u_over_band"] / (1.0 / 0.5)
    w_narrow = narrow.rhs_components["u_over_band"] / (1.0 / 0.2)
    assert 1.0 / 0.2 > 1.0 / 0.5
    assert w_narrow == pytest.approx(w_wide, rel=1e-12)  # same norm, bigger weight
