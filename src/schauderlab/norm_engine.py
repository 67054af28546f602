"""Discrete L^p, H^k and Holder norms over ball regions.

Integrals are plain Riemann sums h^n * sum over the region's valid nodes;
Holder seminorms replace the continuum sup by the exact sup over node pairs,
found by a dual-tree branch and bound (Gray & Moore 2000; Curtin et al. 2013);
``scan_mode`` is always "exhaustive", meaning the value is the all-pairs sup.
Derivatives inside norms are repeated pure central differences, so regions
must leave a k-node margin to the box.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .domain_grid import BallRegion, box_region
from .errors import (
    EmptyRegionError,
    StencilOverflowError,
    SupportViolationError,
    UndefinedRatioError,
)
from .field_calculus import Field, VecField, central_difference, gradient

# Kept only as the benchmark's brute-force cross-check size (perfbench reads
# it); every Holder scan is exact whatever the node count. It goes when the
# benchmark is next extended.
PAIR_SCAN_CUTOFF = 5000

# Child cell pairs one chunk of the pair-scan frontier may expand into; bounds
# the scan's working memory whatever the field.
_MAX_EXPANSION = 1 << 19

# Relative slack on a cell pair's upper bound, so that rounding in the bound
# never prunes a pair whose computed quotient would beat it.
_BOUND_SLACK = 1e-12

# Default Sobolev exponent for n = 2, where any p > 2 is admissible.
SOBOLEV_P_2D = 4.0


@dataclass
class NormValue:
    """One evaluated norm: kind, parameters, region and the value itself.

    For Holder seminorms the maximizing node pair and the scan mode are
    recorded alongside the value; the scan mode is always 'exhaustive',
    meaning the value is the sup over all node pairs.
    """

    kind: str
    params: dict
    region_center: tuple
    region_radius: float
    value: float
    argmax_pair: tuple | None = None
    scan_mode: str | None = None

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "params": self.params,
            "region": {"center": list(self.region_center), "radius": self.region_radius},
            "value": self.value,
        }
        if self.argmax_pair is not None:
            payload["argmax_pair"] = [list(map(float, p)) for p in self.argmax_pair]
        if self.scan_mode is not None:
            payload["scan_mode"] = self.scan_mode
        return json.dumps(payload)


def _region_values(u: Field, region: BallRegion, min_nodes: int = 1):
    if u.grid != region.grid:
        raise ValueError("field and region live on different grids")
    mask = region.mask & u.valid
    if mask.sum() < min_nodes:
        raise EmptyRegionError(
            f"region B({region.center}, {region.radius}) holds {int(mask.sum())} valid nodes, "
            f"need {min_nodes}"
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


def _extreme(ufunc, vals, ids, starts):
    """Per-block extreme of ``vals`` (blocks begin at ``starts``) and, per
    component, the id of the first row realizing it."""
    ext = ufunc.reduceat(vals, starts, axis=0)
    hit = vals == np.repeat(ext, np.diff(np.append(starts, len(vals))), axis=0)
    rows = np.where(hit, np.arange(len(vals))[:, None], len(vals))
    return ext, np.take_along_axis(ids, np.minimum.reduceat(rows, starts, axis=0), axis=0)


def _pyramid(idx: np.ndarray, coords: np.ndarray, samples: np.ndarray) -> list:
    """Max/min pyramid over Morton-ordered nodes. Level 0 holds single nodes,
    each level above merges the cells of one aligned 2^n block, the top level
    is the root. A level is (lo, hi, vmax, imax, vmin, imin, start, count):
    per cell the bounding box of its nodes, the per-component sample range
    with a node realizing each extreme, and its children as a run of the
    level below."""
    n = idx.shape[1]
    rel = idx - idx.min(axis=0)
    bits = int(rel.max()).bit_length()
    key = sum(((rel[:, k] >> b) & 1) << (b * n + k) for b in range(bits) for k in range(n))
    order = np.argsort(key, kind="stable")
    key, ids = key[order], np.repeat(order[:, None], samples.shape[1], axis=1)
    levels = [(coords[order], coords[order], samples[order], ids, samples[order], ids, None, None)]
    for _ in range(bits):
        lo, hi, vmax, imax, vmin, imin = levels[-1][:6]
        key = key >> n
        starts = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
        key = key[starts]
        levels.append((
            np.minimum.reduceat(lo, starts, axis=0), np.maximum.reduceat(hi, starts, axis=0),
            *_extreme(np.maximum, vmax, imax, starts), *_extreme(np.minimum, vmin, imin, starts),
            starts, np.diff(np.append(starts, len(lo))),
        ))
    return levels


def _gap_norm(d: np.ndarray) -> np.ndarray:
    """|v_a - v_b| for scalar samples (one column), Euclidean norm otherwise."""
    return np.abs(d[:, 0]) if d.shape[1] == 1 else np.linalg.norm(d, axis=1)


def _holder_pairs(grid, mask: np.ndarray, u_vals, alpha: float, threshold: float | None):
    """Dual-tree branch and bound over the node pairs of ``mask``.

    A cell pair (A, B) of the pyramid is bounded above by
    |componentwise max(max_A - min_B, max_B - min_A)| / dist(A, B)^alpha and
    below by the quotient of its realized extreme nodes; pairs that survive
    pruning split into child pairs down to single nodes. With ``threshold``
    None it finds the all-pairs max and one pair attaining it; otherwise
    every pair whose quotient is at least ``threshold``, widest separation
    first, then in ``np.argwhere(mask)`` order. The frontier is descended
    depth first in chunks, so memory stays bounded.

    Returns (best, idx_a, idx_b): the max (None for a threshold scan) and
    the node indices of the pairs found, each (count, n).
    """
    idx = np.argwhere(mask)
    if len(idx) < 2:
        raise EmptyRegionError("Holder seminorm needs at least two valid nodes")
    coords = grid.axis[idx]
    if u_vals.ndim == grid.n:
        samples = u_vals[mask][:, None]
    else:
        samples = np.stack([comp[mask] for comp in u_vals], axis=1)
    levels = _pyramid(idx, coords, samples)

    def quotient(pa, pb):
        d = coords[pa] - coords[pb]
        dist = np.sqrt((d * d).sum(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            q = _gap_norm(samples[pa] - samples[pb]) / dist**alpha
        return np.where(dist > 0, q, 0.0)

    fan = 2**grid.n
    ii, jj = np.repeat(np.arange(fan), fan), np.tile(np.arange(fan), fan)
    chunk = _MAX_EXPANSION // fan**2
    best, best_pair = 0.0, (0, 1)
    found = [(np.zeros(0, dtype=np.intp),) * 2]
    stack = [(len(levels) - 1, np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp))]
    while stack:
        level, a, b = stack.pop()
        lo, hi, vmax, imax, vmin, imin, start, count = levels[level]
        if level == 0:
            pa, pb = imax[a, 0], imax[b, 0]
            q = quotient(pa, pb)
            if threshold is not None:
                found.append((pa[q >= threshold], pb[q >= threshold]))
            elif q.max() > best:
                k = int(np.argmax(q))
                best, best_pair = float(q[k]), (pa[k], pb[k])
            continue
        gap = np.maximum(np.maximum(lo[b] - hi[a], lo[a] - hi[b]), 0.0)
        dist = np.sqrt((gap * gap).sum(axis=1))
        up_ab, up_ba = vmax[a] - vmin[b], vmax[b] - vmin[a]
        spread = (1.0 + _BOUND_SLACK) * _gap_norm(np.maximum(up_ab, up_ba))
        with np.errstate(divide="ignore", invalid="ignore"):
            ub = np.where(dist > 0, spread / dist**alpha, np.where(spread > 0, np.inf, 0.0))
        if threshold is not None:
            keep = ub >= threshold
        else:
            ka, kb = up_ab.argmax(axis=1), up_ba.argmax(axis=1)
            pa = np.concatenate([imax[a, ka], imax[b, kb]])
            pb = np.concatenate([imin[b, ka], imin[a, kb]])
            q = quotient(pa, pb)
            k = int(np.argmax(q))
            if q[k] > best:
                best, best_pair = float(q[k]), (pa[k], pb[k])
            keep = ub > best
        # children of the kept pairs, keeping a <= b: a cell paired with
        # itself yields each unordered child pair once, and no node is
        # paired with itself
        a, b = a[keep], b[keep]
        ok = (ii < count[a][:, None]) & (jj < count[b][:, None])
        ok &= (a != b)[:, None] | ((ii < jj) if level == 1 else (ii <= jj))
        rows, k = np.nonzero(ok)
        ca, cb = start[a][rows] + ii[k], start[b][rows] + jj[k]
        for s in reversed(range(0, len(ca), chunk)):
            stack.append((level - 1, ca[s : s + chunk], cb[s : s + chunk]))

    if threshold is None:
        return best, idx[[min(best_pair)]], idx[[max(best_pair)]]
    pa, pb = (np.concatenate(part) for part in zip(*found))
    pa, pb = np.minimum(pa, pb), np.maximum(pa, pb)
    order = np.lexsort((pb, pa, -np.linalg.norm(coords[pa] - coords[pb], axis=1)))
    return None, idx[pa[order]], idx[pb[order]]


def _holder_scan_mask(grid, mask: np.ndarray, u_vals, alpha: float):
    """Exact sup over the node pairs of ``mask`` of |u(x) - u(y)| / |x - y|^alpha.

    ``u_vals`` is a scalar grid array or a stack of vector components.
    Returns (value, (index_a, index_b), "exhaustive") with the node indices
    of a pair attaining the value; the quotient is computed from
    ``grid.axis`` coordinates, so the pair realizes the value exactly.
    Typical fields prune to a near-linear number of cell pairs; in the worst
    case nothing prunes (an affine field at alpha = 1, where every pair
    along the gradient ties) and the scan costs about as much as the
    exhaustive O(N^2) scan, in bounded memory.
    """
    best, idx_a, idx_b = _holder_pairs(grid, mask, u_vals, alpha, None)
    return best, (idx_a[0], idx_b[0]), "exhaustive"


def _holder_norm(u_vals, valid, region: BallRegion, alpha: float, params: dict) -> NormValue:
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    grid = region.grid
    value, (ia, ib), used = _holder_scan_mask(grid, region.mask & valid, u_vals, alpha)
    return NormValue(
        "HolderSemi", params, region.center, region.radius, value,
        argmax_pair=(tuple(grid.axis[ia]), tuple(grid.axis[ib])), scan_mode=used,
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


def hk_norm_vec(F: VecField, k: int, region: BallRegion) -> NormValue:
    total = 0.0
    for j in range(F.grid.n):
        total += hk_norm(F.component(j), k, region).value ** 2
    return NormValue("Hk", {"k": k, "vector": True}, region.center, region.radius, math.sqrt(total))


def sobolev_ratio(u: Field, p: float | None = None) -> float:
    """||u||_{p}^2 / ||grad u||_2^2 for compactly supported u.

    Uses p = 2n/(n-2) for n >= 3; for n = 2 the caller picks any p > 2
    (default 4). Homogeneous of degree zero in u.
    """
    grid = u.grid
    if grid.n >= 3:
        p = 2.0 * grid.n / (grid.n - 2)
    elif p is None:
        p = SOBOLEV_P_2D
    elif p <= 2:
        raise ValueError(f"n = 2 needs p > 2, got {p}")
    support = np.abs(u.values) > 0
    if not support.any():
        raise UndefinedRatioError("ratio undefined for the zero field")
    coords = grid.axis[np.argwhere(support)]
    if np.linalg.norm(coords, axis=1).max() > grid.half_width - 2 * grid.h:
        raise SupportViolationError("support must sit strictly inside the box")
    box = box_region(grid)
    num = lp_norm(u, p, box).value ** 2
    den = lp_norm_vec(gradient(u), 2, box).value ** 2
    return num / den
