import os
import subprocess
import sys

import numpy as np
import pytest

from schauderlab.domain_grid import ball_region, make_grid
from schauderlab.errors import EmptyRegionError, StencilOverflowError, UndefinedRatioError
from schauderlab.field_calculus import Field, gradient
from schauderlab.generators import bump_field
from schauderlab.norm_engine import (
    ck_alpha_norm,
    hk_norm,
    holder_seminorm,
    holder_seminorm_vec,
    lp_norm,
    lp_norm_vec,
    sobolev_ratio,
)


def brute_force_seminorm(u, alpha, region):
    """Independent O(N^2) loop oracle for the pairwise Holder sup of a Field,
    or of a VecField with differences in the Euclidean norm."""
    idx = np.argwhere(region.mask)
    coords = region.grid.axis[idx]
    if isinstance(u, Field):
        vals = u.values[region.mask][:, None]
    else:
        vals = np.stack([comp[region.mask] for comp in u.components], axis=1)
    best = 0.0
    pair = None
    for i in range(len(vals)):
        d = np.linalg.norm(coords[i + 1 :] - coords[i], axis=1)
        q = np.linalg.norm(vals[i + 1 :] - vals[i], axis=1) / d**alpha
        if len(q) and q.max() > best:
            best = float(q.max())
            pair = (i, i + 1 + int(np.argmax(q)))
    return best, pair


def test_lp_constant_matches_area(grid257):
    region = ball_region(grid257, 0.0, 0.5)
    value = lp_norm(Field.full(grid257, 3.0), 2, region).value
    target = 3.0 * np.sqrt(np.pi * 0.25)
    assert abs(value / target - 1.0) < 0.01


def test_lp_zero_every_exponent(grid65):
    region = ball_region(grid65, 0.0, 0.5)
    for p in (1, 2, 7.5, np.inf):
        assert lp_norm(Field.zeros(grid65), p, region).value == 0.0


def test_lp_saddle_closed_form(grid257):
    # oracle: polar integration of (x^2-y^2)^2 over B_1 gives pi/6
    u = Field.from_function(grid257, lambda x, y: x**2 - y**2)
    value = lp_norm(u, 2, ball_region(grid257, 0.0, 1.0)).value
    assert abs(value / np.sqrt(np.pi / 6) - 1.0) < 0.01


def test_lp_empty_region_rejected(grid65):
    shifted = ball_region(grid65, (grid65.h / 3, 0.0), grid65.h / 4)
    assert shifted.is_empty
    with pytest.raises(EmptyRegionError):
        lp_norm(Field.zeros(grid65), 2, shifted)


def test_holder_constant_is_zero(grid65):
    region = ball_region(grid65, 0.0, 0.6)
    for alpha in (0.3, 1.0):
        assert holder_seminorm(Field.full(grid65, 2.0), alpha, region).value == 0.0


def test_holder_cusp_matches_brute_force():
    grid = make_grid(2, 1.0, 33)
    alpha = 0.5
    u = Field.from_function(grid, lambda x, y: (x**2 + y**2) ** (alpha / 2))
    region = ball_region(grid, 0.0, 0.9)
    nv = holder_seminorm(u, alpha, region)
    oracle, _ = brute_force_seminorm(u, alpha, region)
    assert nv.value == pytest.approx(oracle, rel=1e-12)
    assert nv.value == pytest.approx(1.0, rel=1e-12)
    assert (0.0, 0.0) in nv.argmax_pair


def test_holder_linear_lipschitz(grid65):
    c = np.array([2.0, 1.0])
    u = Field.from_function(grid65, lambda x, y: c[0] * x + c[1] * y)
    region = ball_region(grid65, 0.0, 0.9)
    nv = holder_seminorm(u, 1.0, region)
    # axis-aligned pairs give at least max|c_j|; grid pairs along c recover |c|
    assert max(abs(c)) - 1e-12 <= nv.value <= np.linalg.norm(c) + 1e-12
    oracle, _ = brute_force_seminorm(u, 1.0, region)
    assert nv.value == pytest.approx(oracle, rel=1e-12)


def test_holder_seminorm_scaling_exact(rng, grid65):
    u = Field(grid65, rng.standard_normal(grid65.shape))
    region = ball_region(grid65, 0.0, 0.5)
    base = holder_seminorm(u, 0.5, region).value
    scaled = holder_seminorm(Field(grid65, 7.5 * u.values), 0.5, region).value
    assert scaled == pytest.approx(7.5 * base, rel=1e-13)


def test_holder_region_monotone(rng, grid65):
    u = Field(grid65, rng.standard_normal(grid65.shape))
    small = holder_seminorm(u, 0.4, ball_region(grid65, 0.0, 0.4)).value
    large = holder_seminorm(u, 0.4, ball_region(grid65, 0.0, 0.8)).value
    assert small <= large


def test_holder_interpolation_direction(rng, grid65):
    # [u]_{alpha'} <= (2r)^{alpha-alpha'} [u]_alpha discretely
    u = Field(grid65, rng.standard_normal(grid65.shape))
    r, alpha, alpha_p = 0.6, 0.8, 0.3
    region = ball_region(grid65, 0.0, r)
    lo = holder_seminorm(u, alpha_p, region).value
    hi = holder_seminorm(u, alpha, region).value
    assert lo <= (2 * r) ** (alpha - alpha_p) * hi * (1 + 1e-12)


def test_holder_white_noise_above_5000_nodes_exact():
    grid = make_grid(2, 1.0, 129)
    u = Field(grid, np.random.default_rng(7).standard_normal(grid.shape))
    region = ball_region(grid, 0.0, 0.9)
    assert region.mask.sum() == 10429
    nv = holder_seminorm(u, 0.5, region)
    oracle, _ = brute_force_seminorm(u, 0.5, region)
    assert nv.value == pytest.approx(oracle, rel=1e-12)
    assert nv.scan_mode == "exhaustive"


def test_holder_vector_field_exact(grid65):
    cusp = Field.from_function(grid65, lambda x, y: np.hypot(x - 0.05, y + 0.03) ** 0.5)
    F = gradient(cusp)
    region = ball_region(grid65, 0.0, 0.8)
    nv = holder_seminorm_vec(F, 0.5, region)
    oracle, _ = brute_force_seminorm(F, 0.5, region)
    assert nv.value == pytest.approx(oracle, rel=1e-12)


def test_holder_three_dimensional_ball_exact():
    grid = make_grid(3, 1.0, 33)
    u = Field(grid, np.random.default_rng(3).standard_normal(grid.shape))
    region = ball_region(grid, 0.0, 0.6)
    assert region.mask.sum() == 3743
    nv = holder_seminorm(u, 0.5, region)
    oracle, _ = brute_force_seminorm(u, 0.5, region)
    assert nv.value == pytest.approx(oracle, rel=1e-12)


def test_holder_affine_alpha_one_within_one_gib():
    # u = x at alpha = 1 ties every horizontal pair, so no bound prunes and
    # the scan does the exhaustive work; under a 1 GiB address-space cap its
    # chunked descent must still finish, with the exact value 1.
    child = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from schauderlab.domain_grid import ball_region, make_grid
from schauderlab.field_calculus import Field
from schauderlab.norm_engine import holder_seminorm
grid = make_grid(2, 1.0, 129)
region = ball_region(grid, 0.0, 0.6)
value = holder_seminorm(Field(grid, grid.coords()[0]), 1.0, region).value
print(int(region.mask.sum()), repr(value))
sys.exit(0 if region.mask.sum() >= 4637 and value == 1.0 else 1)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_holder_refinement_stability_smooth():
    vals = []
    for m in (65, 129):
        grid = make_grid(2, 1.0, m)
        u = Field.from_function(grid, lambda x, y: np.sin(3 * x) * np.cos(2 * y))
        vals.append(holder_seminorm(u, 0.5, ball_region(grid, 0.0, 0.5)).value)
    assert abs(vals[1] / vals[0] - 1.0) < 0.02


def test_norm_chain_holder_vs_lipschitz(grid65):
    # ||u||_{C^{0,alpha}} <= ||u||_{C^{0,1}} + diameter slack for Lipschitz fields
    u = Field.from_function(grid65, lambda x, y: np.cos(2 * x) + 0.5 * y)
    region = ball_region(grid65, 0.0, 0.5)
    alpha = 0.5
    c_alpha = ck_alpha_norm(u, 0, alpha, region).value
    c_lip = ck_alpha_norm(u, 0, 1.0, region).value
    diam_slack = (2 * 0.5) ** (1 - alpha)
    sup = lp_norm(u, np.inf, region).value
    semi_lip = c_lip - sup
    assert c_alpha <= sup + diam_slack * semi_lip + 1e-12


def test_ck_linear(grid65):
    a, b = (0.7, -0.4), 0.2
    u = Field.from_function(grid65, lambda x, y: a[0] * x + a[1] * y + b)
    region = ball_region(grid65, 0.0, 0.5)
    value = ck_alpha_norm(u, 1, 0.5, region).value
    sup = lp_norm(u, np.inf, region).value
    assert value == pytest.approx(sup + abs(a[0]) + abs(a[1]), abs=1e-10)


def test_ck_cubic_top_seminorm_vanishes(grid65):
    # oracle: third derivatives of a cubic are constant, seminorm 0
    u = Field.from_function(grid65, lambda x, y: x**3 - 3 * x * y**2)
    region = ball_region(grid65, 0.0, 0.5)
    with_semi = ck_alpha_norm(u, 3, 0.5, region).value
    sups_only = 0.0
    from schauderlab.norm_engine import derivative_field, multiindices

    for order in range(4):
        for beta in multiindices(2, order):
            sups_only += lp_norm(derivative_field(u, beta), np.inf, region).value
    assert with_semi == pytest.approx(sups_only, abs=1e-8)


def test_ck_zero(grid65):
    region = ball_region(grid65, 0.0, 0.5)
    assert ck_alpha_norm(Field.zeros(grid65), 2, 0.5, region).value == 0.0


def test_ck_stencil_overflow(grid65):
    region = ball_region(grid65, 0.0, grid65.half_width)
    with pytest.raises(StencilOverflowError):
        ck_alpha_norm(Field.zeros(grid65), 2, 0.5, region)


def test_h1_linear_closed_form(grid257):
    a = (0.7, -0.4)
    u = Field.from_function(grid257, lambda x, y: a[0] * x + a[1] * y)
    region = ball_region(grid257, 0.0, 0.5)
    h1 = hk_norm(u, 1, region).value
    l2 = lp_norm(u, 2, region).value
    target = np.sqrt(l2**2 + (a[0] ** 2 + a[1] ** 2) * np.pi * 0.25)
    assert abs(h1 / target - 1.0) < 0.01


def test_hk_zero(grid65):
    assert hk_norm(Field.zeros(grid65), 2, ball_region(grid65, 0.0, 0.5)).value == 0.0


def test_h2_saddle_hessian_part(grid257):
    # oracle: |D^2(x^2-y^2)|^2 = 4+0+0+4 = 8 pointwise
    u = Field.from_function(grid257, lambda x, y: x**2 - y**2)
    region = ball_region(grid257, 0.0, 0.5)
    total_sq = hk_norm(u, 2, region).value ** 2
    grad_sq = lp_norm_vec(gradient(u), 2, region).value ** 2
    l2_sq = lp_norm(u, 2, region).value ** 2
    hess_part = total_sq - grad_sq - l2_sq
    assert abs(hess_part / (8 * np.pi * 0.25) - 1.0) < 0.01


def test_norms_monotone_in_region(rng, grid65):
    u = Field(grid65, rng.standard_normal(grid65.shape))
    small = ball_region(grid65, 0.0, 0.3)
    large = ball_region(grid65, 0.0, 0.6)
    for p in (1, 2, np.inf):
        assert lp_norm(u, p, small).value <= lp_norm(u, p, large).value
    assert hk_norm(u, 1, small).value <= hk_norm(u, 1, large).value


def test_sobolev_ratio_stability():
    vals = []
    for m in (129, 257):
        grid = make_grid(2, 1.0, m)
        u = bump_field(grid, 0.5)
        vals.append(sobolev_ratio(u, p=4.0))
    assert abs(vals[1] / vals[0] - 1.0) < 0.05


def test_sobolev_ratio_zero_rejected(grid65):
    with pytest.raises(UndefinedRatioError):
        sobolev_ratio(Field.zeros(grid65))


def test_sobolev_ratio_scale_invariant(grid65):
    u = bump_field(grid65, 0.4)
    base = sobolev_ratio(u, p=4.0)
    scaled = sobolev_ratio(Field(grid65, 9.0 * u.values), p=4.0)
    assert scaled == pytest.approx(base, rel=1e-13)


def test_normvalue_json_roundtrip(grid65):
    import json

    u = Field.from_function(grid65, lambda x, y: x * y)
    nv = holder_seminorm(u, 0.5, ball_region(grid65, 0.0, 0.5))
    payload = json.loads(nv.to_json())
    assert payload["kind"] == "HolderSemi"
    assert payload["scan_mode"] == "exhaustive"
    assert len(payload["argmax_pair"]) == 2
