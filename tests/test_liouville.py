import numpy as np
import pytest

from schauderlab.domain_grid import make_grid
from schauderlab.errors import (
    DegreeUndetectedError,
    InsufficientScalesError,
    NotHarmonicParametersError,
)
from schauderlab.field_calculus import Field
from schauderlab.liouville_lab import (
    DISCRIMINATION_SCALES,
    GrowthFamily,
    counterexample_generator,
    derivative_energy_scan,
    harmonic_residual,
    polynomial_degree_detect,
    verify_growth,
)


def test_residual_saddle_exact(grid257):
    u = Field.from_function(grid257, lambda x, y: x**2 - y**2)
    assert harmonic_residual(u) <= 1e-12


def test_residual_constant_zero(grid65):
    assert harmonic_residual(Field.full(grid65, 3.0)) == 0.0


def test_residual_second_order_refinement():
    # oracle: refinement pair halving h quarters the residual
    res = []
    for m in (65, 129):
        grid = make_grid(2, 1.0, m)
        u = Field.from_function(grid, lambda x, y: np.exp(x) * np.sin(y))
        res.append(harmonic_residual(u))
    assert 3.0 < res[0] / res[1] < 5.0


def test_family_needs_four_scales():
    with pytest.raises(InsufficientScalesError):
        GrowthFamily(lambda x, y: x, gamma=1.0, scales=(1.0, 2.0, 4.0))
    # four distinct positive ones: a repeated scale divides by log(1) = 0 in
    # the window slopes, and a negative one names no grid
    with pytest.raises(InsufficientScalesError):
        GrowthFamily(lambda x, y: x**2 - y**2, gamma=2.0, scales=(1, 1, 2, 4), m=33)
    with pytest.raises(ValueError, match="scales must be positive"):
        GrowthFamily(lambda x, y: x**2 - y**2, gamma=2.0, scales=(1, 2, 4, -8), m=33)


def test_saddle_energy_scan_matches_closed_form():
    # oracle: integral of |grad(x^2-y^2)|^2 = 4 rho^2 over B_rho is 2 pi rho^4
    fam = GrowthFamily(lambda x, y: x**2 - y**2, gamma=2.0, m=257)
    scan = derivative_energy_scan(fam, 1)
    for scale, energy in zip(scan.scales, scan.energies):
        assert abs(energy / (2 * np.pi * (scale / 2) ** 4) - 1.0) < 0.01
    assert abs(scan.slope - 4.0) <= 0.05 * 4.0


def test_energy_scan_rejects_orders_outside_the_cap():
    fam = GrowthFamily(lambda x, y: x**2 - y**2, gamma=2.0, m=33)
    for k in (-1, 4):
        with pytest.raises(ValueError, match="derivative order"):
            derivative_energy_scan(fam, k)


def test_saddle_third_derivatives_at_floor():
    fam = GrowthFamily(lambda x, y: x**2 - y**2, gamma=2.0, m=257)
    scan0 = derivative_energy_scan(fam, 0)
    scan3 = derivative_energy_scan(fam, 3)
    assert scan3.at_floor
    assert np.all(scan3.energies <= 1e-12 * scan0.energies)


def test_chained_links_scale_stable():
    fam = GrowthFamily(lambda x, y: x**2 - y**2, gamma=2.0, m=129)
    scan = derivative_energy_scan(fam, 1)
    links = [row[0] for row in scan.chain_ratios]
    spread = max(links) / min(links)
    assert spread < 1.2


def test_exp_family_window_slopes_increase():
    fam = GrowthFamily(counterexample_generator((1, 0), (0, 1)), gamma=10.0, m=129)
    scan = derivative_energy_scan(fam, 1)
    assert np.all(np.diff(scan.window_slopes) > 0)


def test_degree_detect_saddle():
    fam = GrowthFamily(lambda x, y: x**2 - y**2, gamma=2.0, m=129)
    assert polynomial_degree_detect(fam) == 2


def test_degree_detect_linear_within_tag():
    fam = GrowthFamily(lambda x, y: 0.7 * x - 0.2 * y + 0.3, gamma=1.5, m=129)
    degree = polynomial_degree_detect(fam)
    assert degree == 1
    assert degree <= int(np.floor(1.5))
    assert verify_growth(fam)["verified"]


def test_degree_detect_constant():
    fam = GrowthFamily(lambda x, y: np.full_like(x, 2.0), gamma=0.5, m=129)
    assert polynomial_degree_detect(fam) == 0
    assert verify_growth(fam)["verified"]


def test_constancy_case_sublinear_tag():
    # any harmonic family with verified gamma < 1 must detect degree 0
    fam = GrowthFamily(lambda x, y: np.full_like(x, -1.3), gamma=0.9, m=129)
    assert verify_growth(fam)["verified"]
    assert polynomial_degree_detect(fam) == 0


def test_counterexample_definition(grid65):
    u = Field.from_function(grid65, counterexample_generator((1.0, 0.0), (0.0, 1.0)))
    X, Y = grid65.coords()
    np.testing.assert_allclose(u.values, np.exp(X) * np.sin(Y), atol=1e-14)
    assert harmonic_residual(u) < 50 * grid65.h**2 * np.exp(1.0)


def test_counterexample_degenerate_zero(grid65):
    u = Field.from_function(grid65, counterexample_generator((0.0, 0.0), (0.0, 0.0)))
    assert np.abs(u.values).max() == 0.0


def test_counterexample_rejects_bad_parameters():
    with pytest.raises(NotHarmonicParametersError):
        counterexample_generator((1.0, 0.0), (0.0, 2.0))
    with pytest.raises(NotHarmonicParametersError):
        counterexample_generator((1.0, 0.0), (1.0, 0.0))


def test_counterexample_discrimination_all_gammas():
    gen = counterexample_generator((1.0, 0.0), (0.0, 1.0))
    for gamma in (0.5, 2.0, 5.0, 10.0):
        fam = GrowthFamily(gen, gamma=gamma, scales=DISCRIMINATION_SCALES, m=129)
        assert fam.harmonic_gate()
        assert not verify_growth(fam)["verified"]
    fam = GrowthFamily(gen, gamma=10.0, scales=DISCRIMINATION_SCALES, m=129)
    with pytest.raises(DegreeUndetectedError):
        polynomial_degree_detect(fam)


def test_saddle_growth_tag_sharp():
    ok = GrowthFamily(lambda x, y: x**2 - y**2, gamma=2.0, m=129)
    assert verify_growth(ok)["verified"]
    too_small = GrowthFamily(lambda x, y: x**2 - y**2, gamma=1.9, m=129)
    assert not verify_growth(too_small)["verified"]


def test_constant_coefficient_smoke_case():
    # entire solution of a constant diagonal-coefficient equation: the decay
    # scan and degree/growth consistency carry over (scaling is coefficient-
    # blind); the residual gate is rebuilt for the weighted Laplacian inline
    a11, a22 = 2.0, 1.0
    gen = lambda x, y: x**2 - (a11 / a22) * y**2  # noqa: E731

    def weighted_residual(u):
        g = u.grid
        m, h = g.m, g.h
        c = (slice(1, m - 1),) * 2
        vals = u.values
        xx = (vals[2:, 1:-1] - 2 * vals[c] + vals[:-2, 1:-1]) / h**2
        yy = (vals[1:-1, 2:] - 2 * vals[c] + vals[1:-1, :-2]) / h**2
        return float(np.abs(a11 * xx + a22 * yy).max())

    fam = GrowthFamily(gen, gamma=2.0, m=129)
    for scale in fam.scales:
        assert weighted_residual(fam.field_at(scale)) <= 1e-10
    scan = derivative_energy_scan(fam, 1)
    assert abs(scan.slope - 4.0) <= 0.05 * 4.0
    assert derivative_energy_scan(fam, 3).at_floor
    assert verify_growth(fam)["verified"]
