"""Discrete L^p, H^k and Holder norms over ball regions.

Integrals are plain Riemann sums h^n * sum over the region's valid nodes;
Holder seminorms replace the continuum sup by the exact sup over node pairs,
found by a dual-tree branch and bound (Gray & Moore 2000; Curtin et al. 2013).
One pass returns the all-pairs sup, the first pair in np.argwhere order that
attains it and the widest pair within a relative ``TIE_RTOL`` of it, which
blow-ups take. Cell-pair distances are floored at the grid spacing, the
least distance between two nodes, so coinciding and touching cells prune
like distant ones; fields with near-maximal quotients everywhere (an affine
field at alpha = 1, a nearly homogeneous blow-up profile) still cost about
as much as all pairs.
Kept cell pairs from level ``_LOWER_BOUND_LEVEL`` up also evaluate the
quotient of their realized extreme nodes, a lower bound that raises the
running floor; a pruned pair's quotients are at most its bound, so at most
the floor, and it is not evaluated. No lower bound exceeds the max, and a
pair that attains or ties the max has a quotient at or above every running
floor, so it reaches level 0 whichever lower bounds were evaluated: the
level rule changes the work, never the result.
The scan's memory is its pyramid plus one frontier chunk per level. The
pyramid's mask-only half, its layout, holds each node once, Morton-ordered,
in integers: the node's grid indices in the smallest unsigned type that
holds them, then per coarser cell its child count and index box. That is
about 4 B per node up to m = 256 and 7 B above, at most 8 B in 2-D and 9 B
in 3-D. A region keeps the layout of its mask from its first scan on and
frees it with itself; a field whose valid nodes do not fill the region
builds its own. The geometry stays in the layout: coordinates are read
from ``grid.axis`` at the layout's indices when a cell pair is visited, and
flat grid indices are formed only for node pairs at or above the running
floor. Each scan merges only its samples over the layout: per node the
samples, per coarser cell the sample range, the row of its first child
and, where lower bounds are evaluated, the extreme rows; that is about
15 B per node for a scalar field in 2-D, 11 B in 3-D and 28 B for a 2-D
vector field. The frontier descends in chunks of ``_CHUNK_PAIRS`` parent
cell pairs, each expanding to at most 4^n child pairs.
Derivatives inside norms are repeated pure central differences, so regions
must leave a k-node margin to the box. Every fitted exponent goes through
``log_slope``, and every shell-maximum ladder through ``shell_peaks``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain_grid import Region
from .errors import EmptyRegionError, StencilOverflowError
from .field_calculus import Field, VecField, central_difference

# Kept only as the benchmark's brute-force cross-check size (perfbench reads
# it); every Holder scan is exact whatever the node count. It goes when the
# benchmark is next extended.
PAIR_SCAN_CUTOFF = 5000

# Parent cell pairs in one chunk of the pair-scan frontier, in every
# dimension. A chunk expands into at most 4^n child pairs per parent (2^17 in
# 2-D, 2^19 in 3-D), which bounds the scan's scratch whatever the field.
# Counting parents rather than child rows keeps 3-D chunks long enough: a
# 2^17-row child budget there (2 048 parents) makes 3-D scans slower.
_CHUNK_PAIRS = 8192

# Relative slack on a cell pair's upper bound, so that rounding in the bound
# never prunes a pair whose computed quotient would beat it.
_BOUND_SLACK = 1e-12

# Lowest pyramid level whose cell pairs evaluate the quotients of their
# realized extreme nodes as a lower bound. Any level gives the same result;
# below level 3 the evaluations cost more than the pruning they buy, in 2-D
# and in 3-D.
_LOWER_BOUND_LEVEL = 3

# Relative band below the max in which a pair's quotient counts as tied.
TIE_RTOL = 1e-9

@dataclass
class NormValue:
    """An exact Holder seminorm and the pair of node coordinates attaining it."""

    value: float
    argmax_pair: tuple


def lp_norm(u: Field, p: float, region: Region) -> float:
    """(sum_region |u|^p h^n)^(1/p); nodal max for p = inf."""
    if u.grid != region.grid:
        raise ValueError("field and region live on different grids")
    mask = region.mask & u.valid
    if not mask.any():
        raise EmptyRegionError(f"region B({region.center}, {region.radius}) holds 0 valid nodes, need 1")
    vals = u.values[mask]
    if p == np.inf:
        return float(np.abs(vals).max())
    if not p >= 1:
        raise ValueError(f"exponent must be >= 1 or inf, got {p}")
    return float((np.abs(vals) ** p).sum() * u.grid.h**u.grid.n) ** (1.0 / p)


def _merge(ufunc, vals, child, axis=0):
    """Per-cell ``ufunc`` (np.minimum or np.maximum) of ``vals`` over the
    child rows ``child[j]`` of each cell, j = 0 .. 2^n - 1, taken along
    ``axis``; a cell with fewer children repeats its last, which neither
    extreme sees. Folds left like ``ufunc.reduceat``, so the extremes match
    it bit for bit."""
    ext = vals.take(child[0], axis=axis)
    for rows in child[1:]:
        ufunc(ext, vals.take(rows, axis=axis), out=ext)
    return ext


def _first_ids(vals, ids, ext, first, size):
    """Per cell and component the id of the first row realizing ``ext`` in
    the cell's run of ``size`` rows of ``vals`` from row ``first``, as int32;
    ``ids`` None makes the rows their own ids. Runs of Morton rows nest, so
    with Morton-row ids this is the first node of the cell realizing the
    extreme, as a left fold over the levels between would find it."""
    out = np.empty(ext.shape, dtype=np.int32)
    for k in range(ext.shape[1]):
        at = np.flatnonzero(vals[:, k] == np.repeat(ext[:, k], size))
        at = at.take(np.searchsorted(at, first))
        out[:, k] = at if ids is None else ids[:, k].take(at)
    return out


def _layout(mask: np.ndarray) -> tuple:
    """Morton layout of the nodes of ``mask``, in integers and from the mask
    alone. Returns (index, levels): ``index[k, r]`` is the grid index along
    axis k of the node in Morton row r, one contiguous row per axis. Each
    aligned 2^n block of cells of one level merges into a cell of the next,
    up to the root; ``levels`` holds per coarser level (count, boxes): per
    cell the number of its children, a run of the level below in order, and
    the index box of its nodes as one row (lo, m - 1 - hi) of 2n indices,
    so that the elementwise max of two rows holds the inner faces of the
    two boxes. Rows are zero padded to a power-of-two width, so that taking
    them stays on numpy's fast row copies (a 3-D row of 6 would not)."""
    n = mask.ndim
    # the mask's bounding box, from its projections onto each axis
    first, last = [], []
    for k in range(n):
        on = np.flatnonzero(mask.any(axis=tuple(j for j in range(n) if j != k)))
        first.append(int(on[0]))
        last.append(int(on[-1]))
    box = mask[tuple(slice(f, l + 1) for f, l in zip(first, last))]
    bits = max(l - f for f, l in zip(first, last)).bit_length()
    dtype = np.int32 if n * bits < 31 else np.intp
    # bit b of an index moves to bit b*n of the key; axis k adds its shift
    ramp = np.arange(max(box.shape), dtype=dtype)
    spread = sum(((ramp >> b) & 1) << (b * n) for b in range(bits))
    key = sum((spread[:size] << k).reshape((-1,) + (1,) * (n - 1 - k)) for k, size in enumerate(box.shape))
    # the j-th node of the box in raster order has key key[box][j]; writing
    # j at that key and reading the key space in order gives the Morton
    # order, with no sort
    at = np.full(1 << (n * bits), -1, dtype=dtype)
    at[key[box]] = np.arange(np.count_nonzero(box), dtype=dtype)
    used = at >= 0
    order, key = at[used], np.flatnonzero(used).astype(dtype)
    del at, used
    index = np.empty((n, len(key)), dtype=np.min_scalar_type(max(mask.shape) - 1))
    for k, size in enumerate(box.shape):
        axis_k = np.arange(first[k], first[k] + size, dtype=index.dtype).reshape((-1,) + (1,) * (n - 1 - k))
        index[k] = np.broadcast_to(axis_k, box.shape)[box].take(order)
    width = 1 << (2 * n - 1).bit_length()
    levels, lo, hi = [], index, index
    for _ in range(bits):
        key = key >> n
        start = np.flatnonzero(np.append(True, key[1:] != key[:-1])).astype(np.int32)
        key = key[start]
        count = np.diff(np.append(start, np.int32(lo.shape[1]))).astype(np.uint8)
        child = start + np.minimum(np.arange(2**n, dtype=np.int32)[:, None], count - 1)
        lo, hi = _merge(np.minimum, lo, child, axis=1), _merge(np.maximum, hi, child, axis=1)
        boxes = np.zeros((len(start), width), dtype=index.dtype)
        for k in range(n):
            boxes[:, k], boxes[:, n + k] = lo[k], mask.shape[k] - 1 - hi[k]
        levels.append((count, boxes))
    return index, levels


def _pyramid(layout, u_vals) -> list:
    """Max/min pyramid of ``u_vals`` over a ``_layout``, field data only:
    the geometry stays in the layout. Level 0 holds the samples of single
    nodes in Morton rows, one column per component; each level above merges
    the children of its cells, the top level is the root. A level is (vmax,
    imax, vmin, imin, start): per cell the per-component sample range with,
    from level ``_LOWER_BOUND_LEVEL`` up (None below and at level 0), the
    Morton row of the first node realizing each extreme, and the int32 row
    of its first child, the run of the layout's ``count`` cells of the level
    below."""
    index, coarse = layout
    n, rows = index.shape
    m = u_vals.shape[-1]
    node = index[0].astype(np.int32 if m**n <= 2**31 else np.intp)
    for k in range(1, n):
        node = node * m + index[k]
    vals = np.empty((rows, u_vals.size // m**n))
    for k, comp in enumerate(u_vals.reshape(-1, m**n)):
        # the rows are in range, so "clip" only spares take() a buffer
        np.take(comp, node, out=vals[:, k], mode="clip")
    del node
    levels = [(vals, None, vals, None, None)]
    first = None  # the first node of each cell, as a Morton row
    for level, (count, _) in enumerate(coarse, 1):
        below = levels[-1]
        start = np.cumsum(count, dtype=np.int32) - count
        child = start + np.minimum(np.arange(2**n, dtype=np.int32)[:, None], count - 1)
        first = start if first is None else first.take(start)
        vmax, vmin = _merge(np.maximum, below[0], child), _merge(np.minimum, below[2], child)
        imax = imin = None
        if level >= _LOWER_BOUND_LEVEL:
            # only lower bounds read the ids: from the level below, or
            # from the nodes on the first level that has them
            if below[1] is None:
                below, runs = levels[0], (first, np.diff(np.append(first, rows)))
            else:
                runs = (start, count)
            imax = _first_ids(below[0], below[1], vmax, *runs)
            imin = _first_ids(below[2], below[3], vmin, *runs)
        levels.append((vmax, imax, vmin, imin, start))
    return levels


def _norm(cols) -> np.ndarray:
    """Euclidean norm of vectors given by their component columns: the
    sequential sum of squares of np.linalg.norm(d, axis=1) over the rows d
    of the columns' stack, bit for bit, without its slow short-axis
    reduction."""
    total = cols[0] * cols[0]
    for d in cols[1:]:
        total = total + d * d
    return np.sqrt(total)


def _gap_norm(d: np.ndarray) -> np.ndarray:
    """|v_a - v_b| for scalar samples (one column), Euclidean norm otherwise."""
    return np.abs(d[:, 0]) if d.shape[1] == 1 else _norm(d.T)


def _holder_scan_mask(grid, mask: np.ndarray, u_vals, alpha: float, layout=None):
    """Exact sup over the node pairs of ``mask`` of |u(x) - u(y)| / |x - y|^alpha,
    by a dual-tree branch and bound.

    ``u_vals`` is a scalar grid array or a stack of vector components;
    ``layout`` is the ``_layout`` of ``mask``, built here when not given.
    A cell pair (A, B) of the pyramid is bounded above by
    |componentwise max(max_A - min_B, max_B - min_A)| / dist(A, B)^alpha,
    with dist(A, B) the box gap floored at the grid spacing, so the bound is
    finite also for a cell paired with itself or a touching one, and, for
    kept pairs from level ``_LOWER_BOUND_LEVEL`` up, below by the quotient
    of its realized extreme nodes. One pruning rule: a cell pair is kept iff its bound
    exceeds the running tie floor best * (1 - TIE_RTOL), and kept pairs
    split into child pairs down to single nodes. No pair tied with the final max is lost, since its bound
    exceeds its quotient, which is at least the final floor and so at least
    the running one. The test is strict, so a constant field (best 0) prunes
    at the root and enumerates no pair.

    The frontier is descended depth first in chunks of ``_CHUNK_PAIRS``
    parent cell pairs, so memory stays bounded. Quotients are evaluated on
    Morton rows of the pyramid, from ``grid.axis`` at the layout's grid
    indices, so ``best_pair`` realizes the value exactly; only node pairs at
    or above the running floor are mapped to flat grid indices, which order
    like ``np.argwhere(mask)`` rows. ``best_pair`` is the first pair in that
    order whose quotient equals the max. It is tracked at level 0 only:
    every pair attaining the final max reaches level 0 at or above every
    running floor. So it does not depend on how the frontier falls into
    chunks. ``wide_pair`` is the widest pair whose quotient is at least
    best * (1 - TIE_RTOL), ties in ``np.argwhere(mask)`` order. Node pairs
    at or above the running floor join a front kept in that order with
    strictly rising quotients: a candidate goes once it falls below the
    floor or a better-ordered one has at least its quotient, so an exact
    tie keeps one. With best 0 every pair ties, ``best_pair`` is the first
    two nodes and ``wide_pair`` is ``best_pair``.

    Typical fields prune to a near-linear number of cell pairs: with the
    node-spacing floor white noise evaluates under one candidate pair per
    node. The fields the module docstring names, where nearly every pair
    comes close to the max, cost about as much as the O(N^2) scan, in
    bounded memory.

    Returns (value, (best_pair, wide_pair), "exhaustive"), each pair the
    node indices (index_a, index_b) with a before b in ``np.argwhere(mask)``
    order.
    """
    if np.count_nonzero(mask) < 2:
        raise EmptyRegionError("Holder seminorm needs at least two valid nodes")
    if layout is None:
        layout = _layout(mask)
    index, coarse = layout
    levels = _pyramid(layout, u_vals)
    axis, vals = grid.axis, levels[0][0]
    # Node-spacing floor: every computed node-pair distance is at least
    # ``spacing``. A coordinate difference along an axis where the two
    # indices differ is a float subtraction of sorted axis values, monotone
    # in its operands, so it is at least the one-step difference np.diff
    # computes; and sqrt(fl(d^2)) = |d| exactly, so adding squares cannot
    # bring the norm below it. Flooring the cell-pair distance at
    # ``spacing`` keeps every bound finite (touching and self pairs prune
    # too) and still an upper bound; _BOUND_SLACK covers the rounding in
    # pow and in the norm.
    spacing = float(np.diff(grid.axis).min())
    # the axis in reverse, where the layout's complemented indices m - 1 - hi
    # read hi
    flip = axis[::-1].copy()

    def quotient(ra, rb):
        # pairs of distinct nodes, so dist >= spacing > 0; the distance is
        # symmetric in (ra, rb) bit for bit: negation is exact
        dist = _norm(axis.take(index.take(ra, axis=1)) - axis.take(index.take(rb, axis=1)))
        return _gap_norm(vals.take(ra, axis=0) - vals.take(rb, axis=0)) / dist**alpha, dist

    # child slot pairs (ii, jj) of a cell pair, and which of them exist:
    # row (count_a * (fan + 1) + count_b) * 2 + (a == b) of flags[level == 1]
    # marks the slots below both child counts that keep a <= b, strictly at
    # level 1, where a slot pair (i, i) of a self pair is one node twice
    n = grid.n
    fan = 2**n
    ii = np.repeat(np.arange(fan, dtype=np.int32), fan)
    jj = np.tile(np.arange(fan, dtype=np.int32), fan)
    n_a, n_b, same = np.meshgrid(np.arange(fan + 1), np.arange(fan + 1), [False, True], indexing="ij")
    fits = (ii < n_a[..., None]) & (jj < n_b[..., None])
    flags = [(fits & (~same[..., None] | rule)).reshape(-1, fan * fan) for rule in (ii <= jj, ii < jj)]
    # best_pair as flat grid indices (fa < fb), and the quotient it attains
    best, pair_q, best_pair = 0.0, -1.0, None
    front = (np.zeros(0), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))
    root = np.zeros(1, dtype=np.int32)
    stack = [(len(levels) - 1, root, root)]
    while stack:
        level, a, b = stack.pop()
        # the stack holds int32 rows; take() would convert them on every call
        a, b = a.astype(np.intp), b.astype(np.intp)
        if level == 0:
            q, dist = quotient(a, b)
            best = max(best, float(q.max()))
            floor = best * (1 - TIE_RTOL)
            hit = np.flatnonzero(q >= floor)
            if len(hit):
                # only pairs at or above the floor are mapped to grid indices
                fa, fb = (np.ravel_multi_index(index.take(r.take(hit), axis=1), mask.shape) for r in (a, b))
                fa, fb = np.minimum(fa, fb), np.maximum(fa, fb)
                dist, q = dist.take(hit), q.take(hit)
                top = q.max()
                if top >= pair_q:
                    # the first pair in argwhere order attaining ``top``
                    at = np.flatnonzero(q == top)
                    j = at[np.lexsort((fb.take(at), fa.take(at)))[0]]
                    if top > pair_q or (fa[j], fb[j]) < best_pair:
                        pair_q, best_pair = top, (fa[j], fb[j])
                # merge into the tie front: widest first, then argwhere
                # order; keep what is at or above the floor and beats the
                # quotient of every better-ordered candidate
                dist, fa, fb, q = (np.concatenate(part) for part in zip(front, (dist, fa, fb, q)))
                order = np.lexsort((fb, fa, -dist))
                order = order[q[order] >= floor]
                lead = np.maximum.accumulate(q[order])
                order = order[np.append(True, lead[1:] > lead[:-1])]
                front = (dist[order], fa[order], fb[order], q[order])
            continue
        count, boxes = coarse[level - 1]
        vmax, imax, vmin, imin, start = levels[level]
        # per axis the box gap max(lo_b - hi_a, lo_a - hi_b, 0) in
        # coordinates is max(x[max(lo_a, lo_b)] - x[min(hi_a, hi_b)], 0)
        # bit for bit: boxes apart on the axis make the inner faces the
        # nearer ones, and overlapping ones make both sides at most 0
        inner = np.maximum(boxes.take(a, axis=0), boxes.take(b, axis=0)).T
        gap = np.maximum(axis.take(inner[:n]) - flip.take(inner[n : 2 * n]), 0.0)
        dist = np.maximum(_norm(gap), spacing)
        vmax_a, vmin_a = vmax.take(a, axis=0), vmin.take(a, axis=0)
        vmax_b, vmin_b = vmax.take(b, axis=0), vmin.take(b, axis=0)
        up_ab, up_ba = vmax_a - vmin_b, vmax_b - vmin_a
        spread = (1.0 + _BOUND_SLACK) * _gap_norm(np.maximum(up_ab, up_ba))
        ub = spread / dist**alpha
        keep = ub > best * (1 - TIE_RTOL)
        if level >= _LOWER_BOUND_LEVEL and keep.any():
            # only a kept pair can raise the floor: the quotients of a pruned
            # one are at most its bound, so at most the floor
            ka, kb, nc = up_ab[keep].argmax(axis=1), up_ba[keep].argmax(axis=1), vmax.shape[1]
            la, lb = a[keep], b[keep]
            # imax[la, ka] etc., as takes from the flattened (cells, k) tables
            pa = np.concatenate([imax.take(la * nc + ka), imax.take(lb * nc + kb)])
            pb = np.concatenate([imin.take(lb * nc + ka), imin.take(la * nc + kb)])
            # a cell's max and min may sit on one node, a pair of quotient 0
            distinct = pa != pb
            q, _ = quotient(pa[distinct], pb[distinct])
            best = float(q.max(initial=best))
            keep = ub > best * (1 - TIE_RTOL)
        # children of the kept pairs, keeping a <= b: a cell paired with
        # itself yields each unordered child pair once, and no node is
        # paired with itself
        a, b = a[keep], b[keep]
        code = (count.take(a).astype(np.intp) * (fan + 1) + count.take(b)) * 2 + (a == b)
        at = np.flatnonzero(flags[level == 1].take(code, axis=0))
        ca, cb = (start.take(a)[:, None] + ii).take(at), (start.take(b)[:, None] + jj).take(at)
        for s in reversed(range(0, len(ca), _CHUNK_PAIRS)):
            stack.append((level - 1, ca[s : s + _CHUNK_PAIRS], cb[s : s + _CHUNK_PAIRS]))

    # every pair attaining the final max reaches level 0 at or above the
    # final floor, so best_pair is set unless best is 0, when every pair
    # ties and the first two nodes are the first pair; the front was last
    # merged at or after that pair's visit, so it holds only final ties
    if best_pair is None:
        best_pair = tuple(np.flatnonzero(mask)[:2])
    _, fa, fb, _ = front
    wide_pair = (fa[0], fb[0]) if len(fa) else best_pair
    ids = np.stack(np.unravel_index([*best_pair, *wide_pair], mask.shape), axis=1)
    return best, ((ids[0], ids[1]), (ids[2], ids[3])), "exhaustive"


def _holder_norm(u_vals, valid, region: Region, alpha: float) -> NormValue:
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    grid = region.grid
    mask = region.mask & valid
    # a field valid on the whole region (mask holds as many nodes as the
    # region) scans on the region's layout, built on its first such scan;
    # one that cuts into it builds its own
    layout = None
    if np.count_nonzero(mask) == np.count_nonzero(region.mask) >= 2:
        if region.scan_layout is None:
            object.__setattr__(region, "scan_layout", _layout(region.mask))
        layout = region.scan_layout
    value, ((ia, ib), _), _ = _holder_scan_mask(grid, mask, u_vals, alpha, layout)
    return NormValue(value, argmax_pair=(tuple(grid.axis[ia]), tuple(grid.axis[ib])))


def holder_seminorm(u: Field, alpha: float, region: Region) -> NormValue:
    """sup over node pairs of |u(x) - u(y)| / |x - y|^alpha, exact.

    A lower bound of the continuum seminorm by construction; the argmax pair
    is recorded on the result.
    """
    return _holder_norm(u.values, u.valid, region, alpha)


def holder_seminorm_vec(F: VecField, alpha: float, region: Region) -> NormValue:
    """Vector-valued variant: differences measured in the Euclidean norm."""
    return _holder_norm(F.components, F.valid, region, alpha)


def multiindices(n: int, order: int):
    """Unordered multiindices of the given total order, as per-axis counts."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), order):
        beta = [0] * n
        for ax in combo:
            beta[ax] += 1
        out.append(tuple(beta))
    return out


def _check_margin(region: Region, margin: int):
    if region.mask[~region.grid.interior_mask(margin)].any():
        raise StencilOverflowError(
            f"region needs a {margin}-node margin to the boundary for this stencil"
        )


def derivative_field(u: Field, beta: tuple) -> Field:
    """Repeated pure central differences realizing the multiindex beta."""
    out = u
    for ax, reps in enumerate(beta):
        for _ in range(reps):
            out = central_difference(out, ax)
    return out


def ck_alpha_norm(u: Field, k: int, alpha: float, region: Region) -> float:
    """sum_{|beta| <= k} sup |D^beta u| + sum_{|beta| = k} [D^beta u]_alpha."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"order k must be 0..3, got {k}")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    _check_margin(region, k)
    total = 0.0
    top_semis = []
    for order in range(k + 1):
        for beta in multiindices(u.grid.n, order):
            d = derivative_field(u, beta)
            total += lp_norm(d, np.inf, region)
            if order == k:
                top_semis.append(holder_seminorm(d, alpha, region).value)
    total += sum(top_semis)
    return total


def _multinomial(beta: tuple) -> float:
    order = sum(beta)
    num = math.factorial(order)
    for b in beta:
        num //= math.factorial(b)
    return float(num)


def hk_norm(u: Field, k: int, region: Region) -> float:
    """(sum_{j<=k} ||D^j u||_2^2)^(1/2) with the full-derivative-tensor
    convention: each multiindex weighted by its multinomial multiplicity."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    _check_margin(region, k)
    total = 0.0
    for order in range(k + 1):
        for beta in multiindices(u.grid.n, order):
            d = derivative_field(u, beta)
            total += _multinomial(beta) * lp_norm(d, 2, region) ** 2
    return math.sqrt(total)


def log_slope(x, y):
    """Least-squares slope of log y against log x, and the slopes between
    consecutive points (``np.diff(log y) / np.diff(log x)``)."""
    lx, ly = np.log(x), np.log(y)
    return float(np.polyfit(lx, ly, 1)[0]), np.diff(ly) / np.diff(lx)


def shell_peaks(values, valid, dist, edges) -> list:
    """(hi, max |values|) over the valid nodes of each shell lo < dist <= hi
    between consecutive ``edges``; shells without a valid node are skipped."""
    peaks = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        ring = (dist > lo) & (dist <= hi) & valid
        if ring.any():
            peaks.append((hi, float(np.abs(values[ring]).max())))
    return peaks
