import numpy as np
import pytest

from schauderlab.domain_grid import (
    ball_region,
    cutoff,
    make_grid,
    nested_radii,
    truncation_levels,
)
from schauderlab.errors import RegionEscapesDomainError, UnresolvableCutoffError
from schauderlab.field_calculus import gradient


def test_smallest_grid():
    g = make_grid(2, 1.0, 3)
    assert g.h == 1.0
    np.testing.assert_array_equal(g.axis, [-1.0, 0.0, 1.0])


def test_spacing_arithmetic():
    g = make_grid(2, 1.0, 257)
    assert g.h == 2.0 / 256


def test_endpoints_and_origin_exact_nondyadic():
    g = make_grid(2, 1.0, 7)  # h = 1/3 is not representable
    assert g.axis[0] == -1.0 and g.axis[-1] == 1.0
    assert g.axis[g.m // 2] == 0.0


@pytest.mark.parametrize("m", [4, 2, 0])
def test_even_or_small_m_rejected(m):
    with pytest.raises(ValueError):
        make_grid(2, 1.0, m)


def test_nonpositive_half_width_rejected():
    with pytest.raises(ValueError):
        make_grid(2, 0.0, 5)


def test_ball_on_tiny_grid_is_origin_only():
    g = make_grid(2, 1.0, 3)
    region = ball_region(g, 0.0, 0.5)
    assert region.count == 1
    assert region.mask[1, 1]


def test_ball_count_matches_area():
    # oracle: the continuum area fraction pi r^2 / (2w)^2
    g = make_grid(2, 1.0, 257)
    region = ball_region(g, 0.0, 0.5)
    frac = region.count / g.num_nodes
    target = np.pi * 0.25 / 4.0
    assert abs(frac / target - 1.0) < 0.01


def test_ball_escaping_box_rejected():
    g = make_grid(2, 1.0, 65)
    with pytest.raises(RegionEscapesDomainError):
        ball_region(g, (0.9, 0.0), 0.5)


def test_ball_count_refinement_consistency():
    # relative count error vs continuum volume shrinks at least linearly in h
    target = np.pi * 0.49 / 4.0
    errs = []
    for m in (65, 129, 257):
        g = make_grid(2, 1.0, m)
        frac = ball_region(g, 0.0, 0.7).count / g.num_nodes
        errs.append(abs(frac / target - 1.0))
    assert errs[2] <= errs[0] / 2.0


def test_nested_balls_are_nested():
    g = make_grid(2, 1.0, 65)
    small = ball_region(g, (0.1, -0.2), 0.3)
    large = ball_region(g, (0.1, -0.2), 0.6)
    assert np.all(large.mask[small.mask])


def test_nested_radii_ladder():
    r = nested_radii(0.5, 1.0, 4)
    assert r[0] == 1.0  # r_0 = R
    assert r[1] == 0.75 and r[2] == 0.625
    assert np.all(np.diff(r) < 0)
    # exact gap algebra
    gaps = r[:-1] - r[1:]
    expected = 0.5 * np.exp2(-np.arange(1, 5, dtype=float))
    np.testing.assert_array_equal(gaps, expected)


def test_nested_radii_degenerate_rejected():
    with pytest.raises(ValueError):
        nested_radii(1.0, 1.0, 3)


def test_truncation_levels_ladder():
    b = truncation_levels(4)
    assert b[0] == 0.0
    assert b[1] == 0.5 and b[2] == 0.75
    assert np.all(b < 1.0)
    np.testing.assert_array_equal(np.diff(b), np.exp2(-np.arange(1, 5, dtype=float)))


def test_cutoff_plateau_and_support_exact(grid257):
    eta = cutoff(grid257, 0.5, 1.0)
    dist = grid257.radius_from(np.zeros(2))
    assert np.all(eta.values[dist <= 0.5] == 1.0)
    assert np.all(eta.values[dist >= 1.0] == 0.0)
    assert np.all((0.0 <= eta.values) & (eta.values <= 1.0))


def test_cutoff_sandwich(grid129):
    eta = cutoff(grid129, 0.4, 0.8)
    inner = ball_region(grid129, 0.0, 0.4)
    outer = ball_region(grid129, 0.0, 0.8)
    assert np.all(eta.values[inner.mask] == 1.0)
    assert np.all(eta.values[~outer.mask] == 0.0)


def test_cutoff_radially_nonincreasing(grid129):
    eta = cutoff(grid129, 0.3, 0.9)
    mid = grid129.m // 2
    line = eta.values[mid, mid:]
    assert np.all(np.diff(line) <= 1e-15)


def test_cutoff_gradient_bound(grid257):
    # oracle: discrete gradient scan against 2/(R-r) + c h
    from schauderlab.domain_grid import CUTOFF_GRAD_SLACK

    eta = cutoff(grid257, 0.5, 1.0)
    measured = gradient(eta).magnitude().values.max()
    assert measured <= 2.0 / 0.5 + CUTOFF_GRAD_SLACK * grid257.h


def test_cutoff_thin_band_rejected(grid65):
    with pytest.raises(UnresolvableCutoffError):
        cutoff(grid65, 0.5, 0.5 + 2 * grid65.h)


def test_three_dimensional_grid():
    g = make_grid(3, 1.0, 17)
    assert g.shape == (17, 17, 17)
    region = ball_region(g, 0.0, 0.5)
    frac = region.count / g.num_nodes
    target = (4.0 / 3.0) * np.pi * 0.125 / 8.0
    assert abs(frac / target - 1.0) < 0.25  # coarse grid, loose gate
