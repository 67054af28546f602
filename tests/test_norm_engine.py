import gc
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from schauderlab import norm_engine
from schauderlab.domain_grid import ball_region, box_region, make_grid
from schauderlab.errors import EmptyRegionError, StencilOverflowError
from schauderlab.field_calculus import Field, VecField, gradient
from schauderlab.norm_engine import (
    TIE_RTOL,
    _holder_scan_mask,
    ck_alpha_norm,
    hk_norm,
    holder_seminorm,
    holder_seminorm_vec,
    log_slope,
    lp_norm,
    shell_peaks,
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
    value = lp_norm(Field.full(grid257, 3.0), 2, region)
    target = 3.0 * np.sqrt(np.pi * 0.25)
    assert abs(value / target - 1.0) < 0.01


def test_lp_zero_every_exponent(grid65):
    region = ball_region(grid65, 0.0, 0.5)
    for p in (1, 2, 7.5, np.inf):
        assert lp_norm(Field.zeros(grid65), p, region) == 0.0


def test_lp_saddle_closed_form(grid257):
    # oracle: polar integration of (x^2-y^2)^2 over B_1 gives pi/6
    u = Field.from_function(grid257, lambda x, y: x**2 - y**2)
    value = lp_norm(u, 2, ball_region(grid257, 0.0, 1.0))
    assert abs(value / np.sqrt(np.pi / 6) - 1.0) < 0.01


def test_lp_empty_region_rejected(grid65):
    shifted = ball_region(grid65, (grid65.h / 3, 0.0), grid65.h / 4)
    assert not shifted.mask.any()
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
from schauderlab.domain_grid import ball_region, box_region, make_grid
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


def _all_pair_quotients(grid, mask, vals, alpha):
    """Every node pair i < j of ``mask`` in np.argwhere order, with its
    distance and Holder quotient, computed with the scan's float operations."""
    idx = np.argwhere(mask)
    coords = grid.axis[idx]
    samples = vals[mask][:, None] if vals.ndim == grid.n else np.stack([c[mask] for c in vals], axis=1)
    i, j = np.triu_indices(len(idx), k=1)
    dist = np.linalg.norm(coords[i] - coords[j], axis=1)
    gap = np.linalg.norm(samples[i] - samples[j], axis=1)
    return idx, i, j, dist, gap / dist**alpha


def _scan_mask(grid, holes):
    """The ball B(0, 0.8), or its intersection with a valid set full of
    holes, as blow-ups intersect their scan balls with ``u.valid``. The
    spike node of ``_tie_fields`` and its neighbours stay valid, so the
    spike's max stays tied."""
    mask = ball_region(grid, 0.0, 0.8).mask
    if holes:
        valid = np.random.default_rng(grid.m).random(grid.shape) > 0.3
        valid[(slice(grid.m // 2, grid.m // 2 + 3),) * grid.n] = True
        mask = mask & valid
    return mask


def _tie_fields(grid, alpha):
    x = grid.coords()
    radius = np.sqrt(sum(c * c for c in x))
    spike = np.ones(grid.shape)
    spike[(grid.m // 2 + 1,) * grid.n] = 5.0
    checker = (-1.0) ** np.indices(grid.shape).sum(axis=0)
    return {
        "radial": radius**alpha,
        "checkerboard": checker,
        "spike": spike,
        "vector": np.stack([radius**alpha, checker]),
    }


@pytest.mark.parametrize(
    "n, m, alpha", [(2, 17, 0.5), (2, 17, 1.0), (3, 9, 0.5), (2, 33, 1.0)]
)
def test_holder_pairs_wide_pair_is_first_widest_tie(n, m, alpha):
    # blow-ups take wide_pair, so it must be the first of the pairs within
    # TIE_RTOL of the max, widest first, then in np.argwhere(mask) order
    grid = make_grid(n, 1.0, m)
    fields = _tie_fields(grid, alpha)
    near = {}
    if alpha == 1.0:
        fields["affine"] = grid.coords()[0]  # every pair along x ties
        # noise of 1e-10 spreads those ties over the TIE_RTOL band, so the
        # band's floor rises during the scan; on these seeds at m = 33 a scan
        # pruning at the running max, or keeping one tie candidate, returns
        # a narrower pair
        for seed in (37, 38):
            noise = np.random.default_rng(seed).standard_normal(grid.shape)
            near[f"near-affine-{seed}"] = fields["affine"] + 1e-10 * noise
    for holes in (False, True):
        mask = _scan_mask(grid, holes)
        for name, vals in {**fields, **near}.items():
            label = f"{name}, holes {holes}"
            idx, i, j, dist, q = _all_pair_quotients(grid, mask, vals, alpha)
            hit = np.flatnonzero(q >= q.max() * (1 - TIE_RTOL))
            first = hit[np.lexsort((j[hit], i[hit], -dist[hit]))][0]
            best, (_, (wa, wb)), _ = _holder_scan_mask(grid, mask, vals, alpha)
            assert best == q.max(), label
            np.testing.assert_array_equal(wa, idx[i[first]], err_msg=label)
            np.testing.assert_array_equal(wb, idx[j[first]], err_msg=label)
            if name in fields:
                assert (q == q.max()).sum() > 1, label  # the max is tied


def test_holder_pairs_constant_field_prunes_at_root(monkeypatch):
    # best 0 ties every pair, 7 003 153 of them here, yet none is enumerated:
    # the root cell pair prunes, and wide_pair falls back to best_pair
    grid = make_grid(3, 1.0, 33)
    mask = ball_region(grid, 0.0, 0.6).mask
    assert mask.sum() == 3743
    rows = []
    gap_norm = norm_engine._gap_norm

    def counting(d):
        rows.append(len(d))
        return gap_norm(d)

    monkeypatch.setattr(norm_engine, "_gap_norm", counting)
    best, (best_pair, wide_pair), _ = _holder_scan_mask(grid, mask, np.full(grid.shape, 2.0), 0.5)
    assert best == 0.0
    assert sum(rows) <= 3  # the root's bound and its two extreme pairs
    np.testing.assert_array_equal(wide_pair, best_pair)


@pytest.mark.parametrize("n, m, alpha", [(2, 17, 0.5), (2, 17, 1.0), (3, 9, 0.5), (3, 9, 1.0)])
def test_holder_pairs_max_matches_brute_force_and_is_realized(n, m, alpha):
    grid = make_grid(n, 1.0, m)
    fields = _tie_fields(grid, alpha)
    # fields with one component per axis: the identity map, whose pairs all
    # tie at alpha = 1 up to rounding, and white noise
    fields["identity"] = np.stack(grid.coords())
    fields["noise-vector"] = np.random.default_rng(m).standard_normal((n,) + grid.shape)
    for holes in (False, True):
        mask = _scan_mask(grid, holes)
        for name, vals in fields.items():
            label = f"{name}, holes {holes}"
            idx, i, j, dist, q = _all_pair_quotients(grid, mask, vals, alpha)
            best, ((ia, ib), _), _ = _holder_scan_mask(grid, mask, vals, alpha)
            assert best == q.max(), label
            rows = [int(np.flatnonzero((idx == point).all(axis=1))[0]) for point in (ia, ib)]
            assert rows[0] < rows[1]
            realized = q[(i == rows[0]) & (j == rows[1])]
            assert realized.tolist() == [best], label


@pytest.mark.parametrize("chunk", [1, 3, norm_engine._CHUNK_PAIRS])
@pytest.mark.parametrize(
    "n, m, alpha, holes", [(2, 17, 0.5, False), (2, 17, 1.0, True), (3, 9, 0.5, False)]
)
def test_holder_pairs_best_pair_is_first_maximizer_whatever_the_chunks(
    n, m, alpha, holes, chunk, monkeypatch
):
    # best_pair is the first pair in np.argwhere(mask) order whose quotient
    # equals the max; the depth-first frontier meets tied maximizers in an
    # order that depends on its chunk size, so this pins the choice
    monkeypatch.setattr(norm_engine, "_CHUNK_PAIRS", chunk)
    grid = make_grid(n, 1.0, m)
    mask = _scan_mask(grid, holes)
    for name, vals in _tie_fields(grid, alpha).items():
        idx, i, j, _, q = _all_pair_quotients(grid, mask, vals, alpha)
        first = np.flatnonzero(q == q.max())[0]
        _, ((ia, ib), _), _ = _holder_scan_mask(grid, mask, vals, alpha)
        np.testing.assert_array_equal(ia, idx[i[first]], err_msg=name)
        np.testing.assert_array_equal(ib, idx[j[first]], err_msg=name)


def _memory_case(name):
    """(grid, ball radius, field values, alpha) of a scan-memory gate."""
    if name == "cusp-2d":
        grid = make_grid(2, 1.0, 513)
        x, y = grid.coords()
        values = np.sin(2 * x + y) * np.cos(x - 3 * y) + np.sqrt(np.hypot(x - 0.05, y + 0.03))
        return grid, 0.8, values, 0.5
    if name == "cusp-3d":
        grid = make_grid(3, 1.0, 65)
        x, y, z = grid.coords()
        cusp = np.sqrt(np.sqrt((x - 0.05) ** 2 + (y + 0.03) ** 2 + z**2))
        return grid, 0.8, np.sin(2 * x + y) * np.cos(x - 3 * z) + cusp, 0.5
    grid = make_grid(2, 1.0, 129)
    return grid, 0.6, grid.coords()[0], 1.0  # affine at alpha = 1: nothing prunes


@pytest.mark.parametrize(
    "name, nodes, bound",
    [("cusp-2d", 131753, 130), ("cusp-3d", 70319, 200), ("affine-2d", 4637, 3000)],
)
def test_holder_scan_peak_memory_per_node(name, nodes, bound):
    # Peak scan scratch in bytes per scanned node. The pyramid holds about
    # 58 B per node for a scalar field (2-D and 3-D) and the frontier chunks
    # the rest: 85, 153 and 1 651 B per node here. A scan that also holds
    # the argwhere rows and a row-major copy of the nodes, and expands 2^19
    # child pairs per 2-D chunk, peaks at 189, 241 and 7 710 B per node.
    grid, radius, values, alpha = _memory_case(name)
    u, region = Field(grid, values), ball_region(grid, 0.0, radius)
    assert region.mask.sum() == nodes
    small = make_grid(2, 1.0, 17)  # first-call allocations happen here
    holder_seminorm(Field(small, small.coords()[0] ** 2), 0.5, ball_region(small, 0.0, 0.8))
    tracemalloc.start()
    try:
        holder_seminorm(u, alpha, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * nodes, f"peak {peak / 1e6:.1f} MB = {peak / nodes:.0f} B/node"


def test_holder_scan_prunes_white_noise_to_linear_work(monkeypatch):
    # deterministic cost guard: the rows whose sample gaps the scan evaluates
    # stay linear in the node count on white noise, where self and touching
    # cell pairs must prune through the node-spacing floor
    grid = make_grid(2, 1.0, 257)
    mask = ball_region(grid, 0.0, 0.8).mask
    assert mask.sum() == 32937
    u = Field(grid, np.random.default_rng(0).standard_normal(grid.shape))
    rows = []
    gap_norm = norm_engine._gap_norm

    def counting(d):
        rows.append(len(d))
        return gap_norm(d)

    monkeypatch.setattr(norm_engine, "_gap_norm", counting)
    holder_seminorm(u, 0.5, ball_region(grid, 0.0, 0.8))
    assert sum(rows) <= 1.5 * mask.sum()


def test_holder_scan_prunes_off_node_cusp_without_leaf_lower_bounds(monkeypatch):
    # deterministic cost guard: an off-node square-root cusp evaluates
    # 127 440 gap rows here. Lower bounds from level 1 (137 920 rows), on
    # every visited cell pair rather than the kept ones (274 038 from level
    # 1), or none at all (781 405) break the ceiling, without any timing
    grid = make_grid(2, 1.0, 257)
    region = ball_region(grid, 0.0, 0.8)
    assert region.count == 32937
    x, y = grid.coords()
    u = Field(grid, np.sqrt(np.hypot(x - 0.05, y + 0.03)))
    rows = []
    gap_norm = norm_engine._gap_norm

    def counting(d):
        rows.append(len(d))
        return gap_norm(d)

    monkeypatch.setattr(norm_engine, "_gap_norm", counting)
    holder_seminorm(u, 0.5, region)
    assert sum(rows) <= 135000


@pytest.mark.parametrize("level", [1, 2, 4, 99])
@pytest.mark.parametrize("n, m, alpha", [(2, 17, 0.5), (2, 33, 1.0), (3, 9, 0.5)])
def test_holder_pairs_do_not_depend_on_the_lower_bound_levels(n, m, alpha, level, monkeypatch):
    # a lower bound only raises the running floor toward the max, so the
    # levels that evaluate one (99: none) change the work, never the result
    grid = make_grid(n, 1.0, m)
    fields = _tie_fields(grid, alpha)
    fields["noise"] = np.random.default_rng(m).standard_normal(grid.shape)
    if alpha == 1.0:
        fields["near-affine"] = grid.coords()[0] + 1e-10 * fields["noise"]
    for holes in (False, True):
        mask = _scan_mask(grid, holes)
        for name, vals in fields.items():
            expected = _holder_scan_mask(grid, mask, vals, alpha)
            with monkeypatch.context() as patch:
                patch.setattr(norm_engine, "_LOWER_BOUND_LEVEL", level)
                got = _holder_scan_mask(grid, mask, vals, alpha)
            assert got[0] == expected[0], name
            np.testing.assert_array_equal(got[1], expected[1], err_msg=name)


def _layout_fields(grid):
    """An off-node square-root cusp, white noise and a vector field whose
    first component is the cusp."""
    x = grid.coords()
    cusp = np.sqrt(np.sqrt(sum((c - 0.03 * (k + 1)) ** 2 for k, c in enumerate(x))))
    noise = np.random.default_rng(grid.m).standard_normal(grid.shape)
    return Field(grid, cusp), Field(grid, noise), VecField(grid, np.stack([cusp, *x[1:]]))


@pytest.mark.parametrize("n, m, radius", [(2, 33, 0.8), (3, 13, 0.8)])
def test_holder_region_layout_reuse_matches_fresh_region_and_brute_force(n, m, radius):
    # scans after the first run on the layout the region holds; each must
    # give the value and pair of a fresh, equal region and of brute force
    grid = make_grid(n, 1.0, m)
    region = ball_region(grid, 0.0, radius)
    idx = np.argwhere(region.mask)
    for u in _layout_fields(grid):
        scan = holder_seminorm if isinstance(u, Field) else holder_seminorm_vec
        held = scan(u, 0.5, region)
        assert region.scan_layout is not None
        fresh_region = ball_region(grid, 0.0, radius)
        assert fresh_region == region and fresh_region.scan_layout is None
        fresh = scan(u, 0.5, fresh_region)
        assert held.value == fresh.value
        assert held.argmax_pair == fresh.argmax_pair
        oracle, (i, j) = brute_force_seminorm(u, 0.5, region)
        assert held.value == pytest.approx(oracle, rel=1e-12)
        assert held.argmax_pair == (tuple(grid.axis[idx[i]]), tuple(grid.axis[idx[j]]))


@pytest.mark.parametrize("n, m", [(2, 33), (3, 13)])
def test_box_region_is_not_a_ball_region_and_keeps_its_layout(n, m):
    # the box selects every node; the inscribed ball B(0, w) drops the
    # faces, so the two regions differ though both are one Region type
    grid = make_grid(n, 1.0, m)
    box = box_region(grid)
    ball = ball_region(grid, 0.0, grid.half_width)
    assert box != ball and box == box_region(grid)
    assert box.mask.all() and not ball.mask.all()
    idx = np.argwhere(box.mask)
    for u in _layout_fields(grid):
        scan = holder_seminorm if isinstance(u, Field) else holder_seminorm_vec
        first = scan(u, 0.5, box)
        held = box.scan_layout
        assert held is not None
        again = scan(u, 0.5, box)
        assert box.scan_layout is held
        assert (again.value, again.argmax_pair) == (first.value, first.argmax_pair)
        oracle, (i, j) = brute_force_seminorm(u, 0.5, box)
        assert first.value == pytest.approx(oracle, rel=1e-12)
        assert first.argmax_pair == (tuple(grid.axis[idx[i]]), tuple(grid.axis[idx[j]]))


@pytest.mark.parametrize("n, m", [(2, 33), (3, 13)])
def test_holder_field_cut_by_valid_does_not_use_region_layout(n, m, monkeypatch):
    # a field invalid on part of the region scans mask & valid on a layout
    # of its own, whether or not the region already holds one
    grid = make_grid(n, 1.0, m)
    cusp, _, _ = _layout_fields(grid)
    hole = np.sqrt(sum(c * c for c in grid.coords())) > 0.25
    cut = Field(grid, cusp.values, valid=hole)
    layouts = []
    pyramid = norm_engine._pyramid

    def recording(layout, axis, u_vals):
        layouts.append(layout)
        return pyramid(layout, axis, u_vals)

    monkeypatch.setattr(norm_engine, "_pyramid", recording)
    region = ball_region(grid, 0.0, 0.8)
    first = holder_seminorm(cut, 0.5, region)
    assert region.scan_layout is None
    holder_seminorm(cusp, 0.5, region)
    held = region.scan_layout
    assert layouts[-1] is held
    again = holder_seminorm(cut, 0.5, region)
    assert layouts[-1] is not held and region.scan_layout is held
    assert (again.value, again.argmax_pair) == (first.value, first.argmax_pair)
    _, _, _, _, q = _all_pair_quotients(grid, region.mask & hole, cut.values, 0.5)
    assert first.value == q.max()


def _layout_bytes(layout):
    """Bytes held by the arrays of a region's scan layout."""
    index, levels = layout
    return index.nbytes + sum(a.nbytes for level in levels for a in level)


@pytest.mark.parametrize("n, m, radius", [(2, 257, 0.8), (3, 65, 0.6)])
def test_holder_region_layout_is_freed_with_the_region(n, m, radius):
    grid = make_grid(n, 1.0, m)
    u = Field(grid, np.random.default_rng(5).standard_normal(grid.shape))
    small = make_grid(n, 1.0, 9)  # first-call allocations happen here
    holder_seminorm(Field(small, small.coords()[0] ** 2), 0.5, ball_region(small, 0.0, 0.8))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        region = ball_region(grid, 0.0, radius)
        holder_seminorm(u, 0.5, region)
        held = _layout_bytes(region.scan_layout)
        assert tracemalloc.get_traced_memory()[0] - before >= held > 100e3
        del region
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left <= 20e3, left


@pytest.mark.parametrize(
    "n, m, budget", [(2, 17, 8), (2, 129, 8), (2, 257, 8), (2, 513, 8), (3, 17, 9), (3, 65, 9)]
)
def test_holder_region_layout_bytes_per_node_within_budget(n, m, budget):
    # what a region holds after a scan: its grid indices in the smallest
    # unsigned type, and per coarser cell a child count and an index box
    grid = make_grid(n, 1.0, m)
    for radius in (0.1, 0.3, 0.6, 0.9):
        region = ball_region(grid, (0.013,) * n, radius)
        if region.count < 2:
            continue
        holder_seminorm(Field(grid, grid.coords()[0]), 0.5, region)
        per_node = _layout_bytes(region.scan_layout) / region.count
        assert per_node <= budget, (radius, per_node)


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
    c_alpha = ck_alpha_norm(u, 0, alpha, region)
    c_lip = ck_alpha_norm(u, 0, 1.0, region)
    diam_slack = (2 * 0.5) ** (1 - alpha)
    sup = lp_norm(u, np.inf, region)
    semi_lip = c_lip - sup
    assert c_alpha <= sup + diam_slack * semi_lip + 1e-12


def test_ck_linear(grid65):
    a, b = (0.7, -0.4), 0.2
    u = Field.from_function(grid65, lambda x, y: a[0] * x + a[1] * y + b)
    region = ball_region(grid65, 0.0, 0.5)
    value = ck_alpha_norm(u, 1, 0.5, region)
    sup = lp_norm(u, np.inf, region)
    assert value == pytest.approx(sup + abs(a[0]) + abs(a[1]), abs=1e-10)


def test_ck_cubic_top_seminorm_vanishes(grid65):
    # oracle: third derivatives of a cubic are constant, seminorm 0
    u = Field.from_function(grid65, lambda x, y: x**3 - 3 * x * y**2)
    region = ball_region(grid65, 0.0, 0.5)
    with_semi = ck_alpha_norm(u, 3, 0.5, region)
    sups_only = 0.0
    from schauderlab.norm_engine import derivative_field, multiindices

    for order in range(4):
        for beta in multiindices(2, order):
            sups_only += lp_norm(derivative_field(u, beta), np.inf, region)
    assert with_semi == pytest.approx(sups_only, abs=1e-8)


def test_ck_zero(grid65):
    region = ball_region(grid65, 0.0, 0.5)
    assert ck_alpha_norm(Field.zeros(grid65), 2, 0.5, region) == 0.0


def test_ck_stencil_overflow(grid65):
    region = ball_region(grid65, 0.0, grid65.half_width)
    with pytest.raises(StencilOverflowError):
        ck_alpha_norm(Field.zeros(grid65), 2, 0.5, region)


def test_norms_are_floats_and_holder_pairs_realize_their_values(grid65):
    u = Field.from_function(grid65, lambda x, y: np.hypot(x - 0.05, y + 0.03) ** 0.5)
    region = ball_region(grid65, 0.0, 0.5)
    for value in (lp_norm(u, 2, region), lp_norm(u, np.inf, region), hk_norm(u, 1, region),
                  ck_alpha_norm(u, 1, 0.5, region)):
        assert type(value) is float
    for field, values in ((u, u.values[None]), (gradient(u), gradient(u).components)):
        scan = holder_seminorm if isinstance(field, Field) else holder_seminorm_vec
        nv = scan(field, 0.5, region)
        assert isinstance(nv, norm_engine.NormValue) and type(nv.value) is float
        a, b = (tuple(np.rint((np.asarray(x) + 1.0) / grid65.h).astype(int)) for x in nv.argmax_pair)
        diff = np.linalg.norm(values[(slice(None),) + a] - values[(slice(None),) + b])
        dist = np.linalg.norm(np.subtract(nv.argmax_pair[0], nv.argmax_pair[1]))
        assert diff / dist**0.5 == pytest.approx(nv.value, rel=1e-12)


def _face_distance(grid):
    """Per node, the least number of nodes to a face, node by node."""
    dist = np.empty(grid.shape, dtype=int)
    for node in np.ndindex(grid.shape):
        dist[node] = min(min(i, grid.m - 1 - i) for i in node)
    return dist


@pytest.mark.parametrize("n, m", [(2, 9), (3, 7)])
def test_face_band_checks_agree_with_brute_force(n, m):
    from schauderlab.field_calculus import _band_clear

    grid = make_grid(n, 1.0, m)
    dist = _face_distance(grid)
    regions = [box_region(grid), ball_region(grid, (grid.h / 3,) * n, grid.h / 4)]
    regions += [ball_region(grid, 0.0, r * grid.h) for r in (0.5, 1.5, 2.5, m // 2)]
    for width in (0, 1, 2, m // 2, m // 2 + 1):
        band = dist < width
        for support in range(m // 2 + 2):
            # nonzero at distance >= support from every face, -0.0 on one face node
            values = np.where(dist >= support, 1.0 + dist, 0.0)
            values[(0,) * n] = -0.0
            assert _band_clear(Field(grid, values), width) == (not np.any(values[band] != 0.0))
        for region in regions:
            if (region.mask & band).any():
                with pytest.raises(StencilOverflowError):
                    norm_engine._check_margin(region, width)
            else:
                norm_engine._check_margin(region, width)


def test_empty_region_raises_from_the_norm(grid65):
    shifted = ball_region(grid65, (grid65.h / 3, 0.0), grid65.h / 4)
    for norm in (lambda u: ck_alpha_norm(u, 2, 0.5, shifted), lambda u: hk_norm(u, 1, shifted)):
        with pytest.raises(EmptyRegionError):
            norm(Field.zeros(grid65))


def test_h1_linear_closed_form(grid257):
    a = (0.7, -0.4)
    u = Field.from_function(grid257, lambda x, y: a[0] * x + a[1] * y)
    region = ball_region(grid257, 0.0, 0.5)
    h1 = hk_norm(u, 1, region)
    l2 = lp_norm(u, 2, region)
    target = np.sqrt(l2**2 + (a[0] ** 2 + a[1] ** 2) * np.pi * 0.25)
    assert abs(h1 / target - 1.0) < 0.01


def test_hk_zero(grid65):
    assert hk_norm(Field.zeros(grid65), 2, ball_region(grid65, 0.0, 0.5)) == 0.0


def test_h2_saddle_hessian_part(grid257):
    # oracle: |D^2(x^2-y^2)|^2 = 4+0+0+4 = 8 pointwise
    u = Field.from_function(grid257, lambda x, y: x**2 - y**2)
    region = ball_region(grid257, 0.0, 0.5)
    total_sq = hk_norm(u, 2, region) ** 2
    grad_sq = lp_norm(gradient(u).magnitude(), 2, region) ** 2
    l2_sq = lp_norm(u, 2, region) ** 2
    hess_part = total_sq - grad_sq - l2_sq
    assert abs(hess_part / (8 * np.pi * 0.25) - 1.0) < 0.01


def test_norms_monotone_in_region(rng, grid65):
    u = Field(grid65, rng.standard_normal(grid65.shape))
    small = ball_region(grid65, 0.0, 0.3)
    large = ball_region(grid65, 0.0, 0.6)
    for p in (1, 2, np.inf):
        assert lp_norm(u, p, small) <= lp_norm(u, p, large)
    assert hk_norm(u, 1, small) <= hk_norm(u, 1, large)


@pytest.mark.parametrize("points", [2, 3, 4, 6])
@pytest.mark.parametrize("p", [0.5, 2.0, -3.0])
def test_log_slope_exact_power_law(points, p):
    x = np.geomspace(0.3, 7.0, points)
    slope, window = log_slope(x, 2.5 * x**p)
    assert slope == pytest.approx(p, abs=1e-12)
    assert len(window) == points - 1
    assert np.all(np.abs(window - p) <= 1e-12)


def test_shell_peaks_closed_on_the_outer_edge():
    dist = np.array([0.5, 1.0, 1.5, 2.0, 3.5, 4.0])
    values = np.array([-7.0, -3.0, 1.0, 2.0, 5.0, -6.0])
    valid = np.array([True, True, True, True, True, False])
    peaks = shell_peaks(values, valid, dist, np.array([0.5, 1.0, 2.0, 3.0, 4.0]))
    # dist == 0.5 is the first shell's open inner edge and lies in no shell;
    # dist == 1.0 and 2.0 count in the shell they close, not the next one;
    # (2, 3] is empty and skipped; (3, 4] keeps only its valid node
    assert peaks == [(1.0, 3.0), (2.0, 2.0), (4.0, 5.0)]
