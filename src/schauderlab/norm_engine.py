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
The scan's memory is its pyramid plus one frontier chunk per level. The
pyramid is built from the flat indices of the mask alone and holds each node
once, Morton-ordered: its coordinates, samples, flat index and an int32 row
id, then per coarser cell a box, the sample range and int32 extreme rows;
that is about 58 B per node for a scalar field in 2-D and 3-D. The frontier
descends in chunks of ``_CHUNK_PAIRS`` parent cell pairs, each expanding to
at most 4^n child pairs.
Derivatives inside norms are repeated pure central differences, so regions
must leave a k-node margin to the box. Every fitted exponent goes through
``log_slope``, and every shell-maximum ladder through ``shell_peaks``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domain_grid import BallRegion
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

# Relative band below the max in which a pair's quotient counts as tied.
TIE_RTOL = 1e-9

# Valid nodes a measurement region must hold.
MIN_REGION_NODES = 1


@dataclass
class NormValue:
    """One evaluated norm: kind, parameters, region and the value itself.

    For Holder seminorms a node pair attaining the value is recorded too.
    """

    kind: str
    params: dict
    region_center: tuple
    region_radius: float
    value: float
    argmax_pair: tuple | None = None


def _region_values(u: Field, region: BallRegion):
    if u.grid != region.grid:
        raise ValueError("field and region live on different grids")
    mask = region.mask & u.valid
    if mask.sum() < MIN_REGION_NODES:
        raise EmptyRegionError(
            f"region B({region.center}, {region.radius}) holds {int(mask.sum())} valid nodes, "
            f"need {MIN_REGION_NODES}"
        )
    return mask


def lp_norm(u: Field, p: float, region: BallRegion) -> NormValue:
    """(sum_region |u|^p h^n)^(1/p); nodal max for p = inf."""
    mask = _region_values(u, region)
    vals = u.values[mask]
    if p == np.inf:
        value = float(np.abs(vals).max())
    elif p >= 1:
        hn = u.grid.h**u.grid.n
        value = float((np.abs(vals) ** p).sum() * hn) ** (1.0 / p)
    else:
        raise ValueError(f"exponent must be >= 1 or inf, got {p}")
    return NormValue("Lp", {"p": p}, region.center, region.radius, value)


def lp_norm_vec(F: VecField, p: float, region: BallRegion) -> NormValue:
    """L^p norm of the pointwise Euclidean magnitude |F|."""
    return lp_norm(F.magnitude(), p, region)


def _merge(ufunc, vals, child, ids=None):
    """Per-cell ``ufunc`` (np.minimum or np.maximum) of ``vals`` over the
    child rows ``child[j]`` of each cell, j = 0, 1, ...; a cell with fewer
    children repeats its last, which neither extreme sees. With ``ids``, also
    per component the id of the first row realizing the extreme. Folds left
    like ``ufunc.reduceat``, so the extremes match it bit for bit."""
    ext, first = vals.take(child[0], axis=0), child[0][:, None]
    for rows in child[1:]:
        nxt = ufunc(ext, vals.take(rows, axis=0))
        if ids is not None:
            first = np.where(nxt != ext, rows[:, None], first)
        ext = nxt
    return ext if ids is None else (ext, np.take_along_axis(ids, first, axis=0))


def _pyramid(mask: np.ndarray, axis: np.ndarray, u_vals) -> tuple:
    """Max/min pyramid over the Morton-ordered nodes of ``mask``, built from
    their flat grid indices alone. Returns (levels, node): ``node[r]`` is the
    flat grid index of Morton row r, so rows compare like np.argwhere(mask)
    rows once mapped. Level 0 holds single nodes, each level above merges
    the cells of one aligned 2^n block, the top level is the root. A level
    is (lo, hi, vmax, imax, vmin, imin, start, count): per cell the bounding
    box of its nodes, the per-component sample range with the int32 Morton
    row of a node realizing each extreme, and its children as a run of the
    level below, starting at the int32 row ``start``."""
    n, shape = mask.ndim, mask.shape
    flat = np.flatnonzero(mask)
    # per-axis index range of the mask, from its projections onto each axis
    first, span = [], 0
    for k in range(n):
        on = np.flatnonzero(mask.any(axis=tuple(j for j in range(n) if j != k)))
        first.append(on[0])
        span = max(span, int(on[-1] - on[0]))
    bits = span.bit_length()
    strides = [math.prod(shape[k + 1 :]) for k in range(n)]
    # bit b of an index moves to bit b*n of the key; axis k adds its shift
    ramp = np.arange(1 << bits)
    spread = sum(((ramp >> b) & 1) << (b * n) for b in range(bits))
    key = sum(spread[flat // strides[k] % shape[k] - first[k]] << k for k in range(n))
    order = np.argsort(key, kind="stable")
    key, node = key[order], flat[order]
    del flat, order
    pts = np.stack([axis[node // strides[k] % shape[k]] for k in range(n)], axis=1)
    vals = np.stack([comp.take(node) for comp in u_vals.reshape(-1, mask.size)], axis=1)
    rows = np.broadcast_to(np.arange(len(node), dtype=np.int32)[:, None], vals.shape)
    levels = [(pts, pts, vals, rows, vals, rows, None, None)]
    for _ in range(bits):
        lo, hi, vmax, imax, vmin, imin = levels[-1][:6]
        key = key >> n
        starts = np.flatnonzero(np.append(True, key[1:] != key[:-1])).astype(np.int32)
        key = key[starts]
        count = np.diff(np.append(starts, np.int32(len(lo))))
        child = [starts + np.minimum(j, count - 1) for j in range(2**n)]
        levels.append((
            _merge(np.minimum, lo, child), _merge(np.maximum, hi, child),
            *_merge(np.maximum, vmax, child, imax), *_merge(np.minimum, vmin, child, imin),
            starts, count,
        ))
    return levels, node


def _row_norm(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: the sequential sum of squares of
    np.linalg.norm(d, axis=1), bit for bit, without its slow short-axis
    reduction."""
    sq = d * d
    total = sq[:, 0]
    for k in range(1, d.shape[1]):
        total = total + sq[:, k]
    return np.sqrt(total)


def _gap_norm(d: np.ndarray) -> np.ndarray:
    """|v_a - v_b| for scalar samples (one column), Euclidean norm otherwise."""
    return np.abs(d[:, 0]) if d.shape[1] == 1 else _row_norm(d)


def _holder_pairs(grid, mask: np.ndarray, u_vals, alpha: float):
    """Dual-tree branch and bound over the node pairs of ``mask``.

    A cell pair (A, B) of the pyramid is bounded above by
    |componentwise max(max_A - min_B, max_B - min_A)| / dist(A, B)^alpha,
    with dist(A, B) the box gap floored at the grid spacing, so the bound is
    finite also for a cell paired with itself or a touching one, and below
    by the quotient of its realized extreme nodes. One pruning rule: a cell
    pair is kept iff its bound exceeds the running tie floor
    best * (1 - TIE_RTOL), and kept pairs split into child pairs down to
    single nodes. No pair tied with the final max is lost, since its bound
    exceeds its quotient, which is at least the final floor and so at least
    the running one. The test is strict, so a constant field (best 0) prunes
    at the root and enumerates no pair.

    The frontier is descended depth first in chunks of ``_CHUNK_PAIRS``
    parent cell pairs, so memory stays bounded. Quotients are evaluated on
    Morton rows of the pyramid; only node pairs at or above the running
    floor are mapped to flat grid indices, which order like
    ``np.argwhere(mask)`` rows. ``best_pair`` is the first pair in that
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

    Returns (best, best_pair, wide_pair), each pair the node indices
    (index_a, index_b) with a before b in ``np.argwhere(mask)`` order.
    """
    if np.count_nonzero(mask) < 2:
        raise EmptyRegionError("Holder seminorm needs at least two valid nodes")
    levels, node = _pyramid(mask, grid.axis, u_vals)
    pts, vals = levels[0][0], levels[0][2]
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

    def quotient(ra, rb):
        # the distance is symmetric in (ra, rb) bit for bit: negation is exact
        dist = _row_norm(pts.take(ra, axis=0) - pts.take(rb, axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            q = _gap_norm(vals.take(ra, axis=0) - vals.take(rb, axis=0)) / dist**alpha
        return np.where(dist > 0, q, 0.0), dist

    fan = 2**grid.n
    ii = np.repeat(np.arange(fan, dtype=np.int32), fan)
    jj = np.tile(np.arange(fan, dtype=np.int32), fan)
    # best_pair as flat grid indices (fa < fb), and the quotient it attains
    best, pair_q, best_pair = 0.0, -1.0, None
    front = (np.zeros(0), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))
    root = np.zeros(1, dtype=np.int32)
    stack = [(len(levels) - 1, root, root)]
    while stack:
        level, a, b = stack.pop()
        # the stack holds int32 rows; take() would convert them on every call
        a, b = a.astype(np.intp), b.astype(np.intp)
        lo, hi, vmax, imax, vmin, imin, start, count = levels[level]
        if level == 0:
            q, dist = quotient(a, b)
            best = max(best, float(q.max()))
            floor = best * (1 - TIE_RTOL)
            hit = np.flatnonzero(q >= floor)
            if len(hit):
                # only pairs at or above the floor are mapped to grid indices
                fa, fb = node.take(a.take(hit)), node.take(b.take(hit))
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
        lo_a, hi_a, vmax_a, vmin_a = (x.take(a, axis=0) for x in (lo, hi, vmax, vmin))
        lo_b, hi_b, vmax_b, vmin_b = (x.take(b, axis=0) for x in (lo, hi, vmax, vmin))
        gap = np.maximum(np.maximum(lo_b - hi_a, lo_a - hi_b), 0.0)
        dist = np.maximum(_row_norm(gap), spacing)
        up_ab, up_ba = vmax_a - vmin_b, vmax_b - vmin_a
        spread = (1.0 + _BOUND_SLACK) * _gap_norm(np.maximum(up_ab, up_ba))
        ub = spread / dist**alpha
        # imax[a, ka] etc., as takes from the flattened (cells, k) tables
        ka, kb, nc = up_ab.argmax(axis=1), up_ba.argmax(axis=1), vmax.shape[1]
        pa = np.concatenate([imax.take(a * nc + ka), imax.take(b * nc + kb)])
        pb = np.concatenate([imin.take(b * nc + ka), imin.take(a * nc + kb)])
        q, _ = quotient(pa, pb)
        best = max(best, float(q.max()))
        keep = ub > best * (1 - TIE_RTOL)
        # children of the kept pairs, keeping a <= b: a cell paired with
        # itself yields each unordered child pair once, and no node is
        # paired with itself
        a, b = a[keep], b[keep]
        ok = (ii < count.take(a)[:, None]) & (jj < count.take(b)[:, None])
        ok &= (a != b)[:, None] | ((ii < jj) if level == 1 else (ii <= jj))
        # np.nonzero(ok) by hand: each row of ok holds fan**2 = 2**(2n) flags
        rows = np.flatnonzero(ok)
        k = rows & (fan * fan - 1)
        rows >>= 2 * grid.n
        ca, cb = start.take(a.take(rows)) + ii.take(k), start.take(b.take(rows)) + jj.take(k)
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
    return best, (ids[0], ids[1]), (ids[2], ids[3])


def _holder_scan_mask(grid, mask: np.ndarray, u_vals, alpha: float):
    """Exact sup over the node pairs of ``mask`` of |u(x) - u(y)| / |x - y|^alpha.

    ``u_vals`` is a scalar grid array or a stack of vector components.
    Returns (value, (best_pair, wide_pair), "exhaustive") with the node
    index pairs of ``_holder_pairs``: the first pair in np.argwhere order
    attaining the value, and the widest pair tied with it within
    ``TIE_RTOL``. Quotients are computed from ``grid.axis`` coordinates, so
    ``best_pair`` realizes the value exactly.
    Typical fields prune to a near-linear number of cell pairs: with the
    node-spacing floor white noise evaluates under one candidate pair per
    node. Where nearly every pair comes close to the max nothing prunes: an
    affine field at alpha = 1, where every pair along the gradient ties, and
    nearly homogeneous blow-up window profiles. Those cost about as much as
    the exhaustive O(N^2) scan, in bounded memory.
    """
    best, best_pair, wide_pair = _holder_pairs(grid, mask, u_vals, alpha)
    return best, (best_pair, wide_pair), "exhaustive"


def _holder_norm(u_vals, valid, region: BallRegion, alpha: float, params: dict) -> NormValue:
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    grid = region.grid
    value, ((ia, ib), _), _ = _holder_scan_mask(grid, region.mask & valid, u_vals, alpha)
    return NormValue(
        "HolderSemi", params, region.center, region.radius, value,
        argmax_pair=(tuple(grid.axis[ia]), tuple(grid.axis[ib])),
    )


def holder_seminorm(u: Field, alpha: float, region: BallRegion) -> NormValue:
    """sup over node pairs of |u(x) - u(y)| / |x - y|^alpha, exact.

    A lower bound of the continuum seminorm by construction; the argmax pair
    is recorded on the result.
    """
    return _holder_norm(u.values, u.valid, region, alpha, {"alpha": alpha})


def holder_seminorm_vec(F: VecField, alpha: float, region: BallRegion) -> NormValue:
    """Vector-valued variant: differences measured in the Euclidean norm."""
    return _holder_norm(F.components, F.valid, region, alpha, {"alpha": alpha, "vector": True})


def multiindices(n: int, order: int):
    """Unordered multiindices of the given total order, as per-axis counts."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), order):
        beta = [0] * n
        for ax in combo:
            beta[ax] += 1
        out.append(tuple(beta))
    return out


def _check_margin(region: BallRegion, margin: int):
    if margin == 0:
        return
    m = region.grid.m
    idx = region.node_indices()
    if len(idx) == 0:
        raise EmptyRegionError("region holds no nodes")
    if idx.min() < margin or idx.max() > m - 1 - margin:
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


def ck_alpha_norm(u: Field, k: int, alpha: float, region: BallRegion) -> NormValue:
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
            total += lp_norm(d, np.inf, region).value
            if order == k:
                top_semis.append(holder_seminorm(d, alpha, region).value)
    total += sum(top_semis)
    return NormValue("CkAlpha", {"k": k, "alpha": alpha}, region.center, region.radius, total)


def _multinomial(beta: tuple) -> float:
    order = sum(beta)
    num = math.factorial(order)
    for b in beta:
        num //= math.factorial(b)
    return float(num)


def hk_norm(u: Field, k: int, region: BallRegion) -> NormValue:
    """(sum_{j<=k} ||D^j u||_2^2)^(1/2) with the full-derivative-tensor
    convention: each multiindex weighted by its multinomial multiplicity."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    _check_margin(region, k)
    total = 0.0
    for order in range(k + 1):
        for beta in multiindices(u.grid.n, order):
            d = derivative_field(u, beta)
            total += _multinomial(beta) * lp_norm(d, 2, region).value ** 2
    return NormValue("Hk", {"k": k}, region.center, region.radius, math.sqrt(total))


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
