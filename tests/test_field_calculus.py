import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schauderlab.domain_grid import ball_region, box_region, make_grid
from schauderlab.errors import (
    KernelUnderResolvedError,
    MisalignedStepError,
    SupportViolationError,
)
from schauderlab.field_calculus import (
    Field,
    VecField,
    central_difference,
    difference_quotient,
    gradient,
    mollifier_weights,
    mollify,
    summation_by_parts_residual,
)
from schauderlab.norm_engine import lp_norm


def zero_band(values, width):
    out = values.copy()
    for ax in range(values.ndim):
        sl_lo = (slice(None),) * ax + (slice(0, width),)
        sl_hi = (slice(None),) * ax + (slice(-width, None),)
        out[sl_lo] = 0.0
        out[sl_hi] = 0.0
    return out


@pytest.mark.parametrize("cls", [Field, VecField])
def test_field_construction_contract(cls, grid65):
    lead = () if cls is Field else (grid65.n,)
    values = np.random.default_rng(0).standard_normal(lead + grid65.shape)
    values[..., 0, 0] = -0.0
    field = cls(grid65, values)
    stored = field.values if cls is Field else field.components
    assert stored.tobytes() == values.tobytes() and not np.shares_memory(stored, values)
    assert not stored.flags.writeable and field.valid.all()
    bad = values.copy()
    bad[..., 3, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        cls(grid65, bad)
    valid = np.ones(grid65.shape, dtype=bool)
    valid[3, 4] = False
    masked = cls(grid65, bad, valid)  # an invalid node may hold anything; it is stored as 0
    stored = masked.values if cls is Field else masked.components
    assert not stored[..., 3, 4].any() and np.isfinite(stored).all()
    with pytest.raises(ValueError, match="mask shape"):
        cls(grid65, values, np.ones(grid65.m, dtype=bool))


def test_quotient_linear_exact(grid65):
    a = (1.3, -0.7)
    u = Field.from_function(grid65, lambda x, y: a[0] * x + a[1] * y)
    for s in (1, 3, -2):
        d = difference_quotient(u, 0, s * grid65.h)
        assert np.abs(d.values[d.valid] - a[0]).max() < 1e-12


def test_quotient_square_shift(grid65):
    # oracle: ((x+h)^2 - x^2)/h = 2x + h exactly
    u = Field.from_function(grid65, lambda x, y: x**2)
    h = 4 * grid65.h
    d = difference_quotient(u, 0, h)
    X, _ = grid65.coords()
    assert np.abs((d.values - (2 * X + h))[d.valid]).max() < 1e-13


def test_quotient_zero_step_rejected(grid65):
    u = Field.zeros(grid65)
    with pytest.raises(ValueError):
        difference_quotient(u, 0, 0.0)


def test_quotient_misaligned_step_rejected(grid65):
    u = Field.zeros(grid65)
    with pytest.raises(MisalignedStepError):
        difference_quotient(u, 0, 1.5 * grid65.h)


def test_quotient_validity_mask(grid65):
    u = Field.from_function(grid65, lambda x, y: x)
    d = difference_quotient(u, 0, 2 * grid65.h)
    assert not d.valid[-1, :].any() and not d.valid[-2, :].any()
    assert d.valid[0, :].all()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 5), axis=st.integers(0, 1))
def test_summation_by_parts_identity(seed, steps, axis):
    grid = make_grid(2, 1.0, 33)
    r = np.random.default_rng(seed)
    u = Field(grid, r.standard_normal(grid.shape))
    phi = Field(grid, zero_band(r.standard_normal(grid.shape), steps))
    res = summation_by_parts_residual(u, phi, axis, steps * grid.h)
    box = box_region(grid)
    scale = lp_norm(u, 2, box) * lp_norm(phi, 2, box)
    assert res <= 1e-12 * max(scale, 1e-30)


def test_summation_by_parts_zero_field(grid65):
    phi = Field(grid65, zero_band(np.ones(grid65.shape), 2))
    assert summation_by_parts_residual(Field.zeros(grid65), phi, 0, grid65.h) == 0.0


def test_summation_by_parts_support_violation(grid65):
    u = Field.zeros(grid65)
    phi = Field.full(grid65, 1.0)
    with pytest.raises(SupportViolationError):
        summation_by_parts_residual(u, phi, 0, 2 * grid65.h)


def test_quotient_l2_bound(rng, grid65):
    # Lemma-style bound ||D_j^h u||_{L2(B_r)} <= (2/|h|) ||u||_{L2(B_R)},
    # exact as an inequality for every nodal field
    R, r = 0.9, 0.5
    for _ in range(20):
        u = Field(grid65, rng.standard_normal(grid65.shape))
        for s in (1, -1, 3):
            h = s * grid65.h
            d = difference_quotient(u, 1, h)
            lhs = lp_norm(d, 2, ball_region(grid65, 0.0, r))
            rhs = (2.0 / abs(h)) * lp_norm(u, 2, ball_region(grid65, 0.0, R))
            assert lhs <= rhs * (1 + 1e-12)


def test_quotient_approaches_derivative():
    # smooth synthetic field: ||D^h u - du|| = O(h) and the derivative bound
    # holds with a third-derivative margin
    errs = []
    for m in (33, 65, 129):
        grid = make_grid(2, 1.0, m)
        u = Field.from_function(grid, lambda x, y: np.sin(2 * x) * np.cos(y))
        du = Field.from_function(grid, lambda x, y: 2 * np.cos(2 * x) * np.cos(y))
        d = difference_quotient(u, 0, grid.h)
        inner = ball_region(grid, 0.0, 0.5)
        diff = Field(grid, d.values - du.values, d.valid)
        errs.append(lp_norm(diff, 2, inner))
        lhs = lp_norm(d, 2, inner)
        rhs = lp_norm(du, 2, ball_region(grid, 0.0, 0.9))
        assert lhs <= rhs + 8.0 * grid.h  # C from the third-derivative bound
    assert errs[0] / errs[1] > 1.7 and errs[1] / errs[2] > 1.7


def test_quotient_commutes_with_gradient(rng, grid65):
    u = Field(grid65, rng.standard_normal(grid65.shape))
    h = 2 * grid65.h
    a = central_difference(difference_quotient(u, 1, h), 0)
    b = difference_quotient(central_difference(u, 0), 1, h)
    both = a.valid & b.valid
    assert np.abs(a.values[both] - b.values[both]).max() < 1e-10


def test_gradient_linear_exact(grid65):
    u = Field.from_function(grid65, lambda x, y: 2.0 * x - 3.0 * y)
    g = gradient(u)
    assert np.abs(g.components[0] - 2.0).max() < 1e-12
    assert np.abs(g.components[1] + 3.0).max() < 1e-12


def test_gradient_quadratic_exact(grid65):
    # central and one-sided second-order stencils are exact on quadratics
    u = Field.from_function(grid65, lambda x, y: x**2 - y**2)
    g = gradient(u)
    X, Y = grid65.coords()
    assert np.abs(g.components[0] - 2 * X).max() < 1e-12
    assert np.abs(g.components[1] + 2 * Y).max() < 1e-12


def test_gradient_constant_zero(grid65):
    # one-sided edge stencils cancel only to rounding
    g = gradient(Field.full(grid65, 4.2))
    assert np.abs(g.components).max() < 1e-12


def test_mollify_preserves_constants(grid65):
    out = mollify(Field.full(grid65, 3.0), 4 * grid65.h)
    assert np.abs(out.values[out.valid] - 3.0).max() < 1e-12


def test_mollify_odd_symmetry(grid65):
    u = Field.from_function(grid65, lambda x, y: np.sign(x))
    out = mollify(u, 4 * grid65.h)
    c = grid65.m // 2
    assert abs(out.values[c, c]) < 1e-14


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.sampled_from([1.0, 2.0, 4.0, np.inf]))
def test_mollify_lp_contraction_exact(seed, p):
    grid = make_grid(2, 1.0, 33)
    r = np.random.default_rng(seed)
    g = Field(grid, r.standard_normal(grid.shape))
    out = mollify(g, 4 * grid.h)
    box = box_region(grid)
    assert lp_norm(out, p, box) <= lp_norm(g, p, box)


def test_mollify_under_resolved_rejected(grid65):
    with pytest.raises(KernelUnderResolvedError):
        mollify(Field.zeros(grid65), 1.5 * grid65.h)


def test_mollifier_kernel_properties(grid65):
    weights = mollifier_weights(grid65, 6 * grid65.h)
    assert np.all(weights >= 0.0)
    assert abs(weights.sum() - 1.0) < 1e-14
    # radially nonincreasing along an axis through the center
    c = weights.shape[0] // 2
    line = weights[c, c:]
    assert np.all(np.diff(line) <= 1e-15)


def test_mollify_sup_convergence(grid257):
    # uniformly continuous sample: sup gap decreasing along eps = 2^-j
    u = Field.from_function(grid257, lambda x, y: np.sin(3 * x) + np.cos(2 * y))
    gaps = []
    for j in (3, 4, 5):
        eps = 2.0**-j
        out = mollify(u, eps)
        gaps.append(np.abs(out.values - u.values)[out.valid].max())
    assert gaps[0] > gaps[1] > gaps[2]

