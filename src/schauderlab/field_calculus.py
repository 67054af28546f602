"""Discrete differential and smoothing operators on nodal fields.

Fields are value-semantic samples on a :class:`~schauderlab.domain_grid.Grid`
with an explicit validity mask: operators that lose nodes at the boundary
(shifted quotients, pure central stencils, mollification) mark those nodes
invalid instead of padding values, and every norm downstream skips them.

Difference quotients are restricted to steps that are integer multiples of
the spacing, so that summation by parts
    sum D_j^h u . phi  =  - sum u . D_j^{-h} phi
is an exact identity whenever phi vanishes on a wide enough boundary band.
"""

from __future__ import annotations

import numpy as np

from .domain_grid import Grid
from .errors import (
    KernelUnderResolvedError,
    MisalignedStepError,
    SupportViolationError,
)


def _frozen(data: np.ndarray, valid, shape: tuple, what: str) -> tuple:
    """(data, valid) of a Field (``what`` "values") or a VecField
    ("components") on nodes of ``shape``, read-only: data must be finite at
    the valid nodes and is stored as 0.0 elsewhere; valid=None marks every
    node valid. Either way one finiteness pass runs over one new array, the
    data with 0.0 at the invalid nodes; a boolean index of the valid nodes
    would cost several times that."""
    if valid is None:
        data, valid = data.copy(), np.ones(shape, dtype=bool)
    else:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != shape:
            raise ValueError("validity mask shape mismatch")
        data, valid = np.where(valid, data, 0.0), valid.copy()
    if not np.isfinite(data).all():
        raise ValueError(f"non-finite {what} at valid nodes")
    data.setflags(write=False)
    valid.setflags(write=False)
    return data, valid


class Field:
    """Scalar nodal samples on a grid, immutable after construction.

    ``valid`` marks nodes carrying meaningful values; invalid nodes are
    stored as 0.0 and excluded from norms and inner products.
    """

    __slots__ = ("grid", "values", "valid")

    def __init__(self, grid: Grid, values, valid=None):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        self.grid = grid
        self.values, self.valid = _frozen(values, valid, grid.shape, "values")

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field":
        """Sample ``fn(*coords)`` at the nodes; fn must broadcast over arrays."""
        return cls(grid, fn(*grid.coords()))

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    @property
    def all_valid(self) -> bool:
        return bool(self.valid.all())

    def _combine(self, other, op):
        if isinstance(other, Field):
            if other.grid != self.grid:
                raise ValueError("fields live on different grids")
            return Field(self.grid, op(self.values, other.values), self.valid & other.valid)
        return Field(self.grid, op(self.values, other), self.valid)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, other):
        return self._combine(other, np.multiply)

    def __rmul__(self, other):
        return self._combine(other, lambda a, b: np.multiply(b, a))

    def __neg__(self):
        return Field(self.grid, -self.values, self.valid)

    def clip_positive_part(self, level: float) -> "Field":
        """(u - level)_+ nodewise."""
        return Field(self.grid, np.maximum(self.values - level, 0.0), self.valid)

    def clip_negative_part(self, level: float) -> "Field":
        """(u - level)_- nodewise, i.e. max(level - u, 0)."""
        return Field(self.grid, np.maximum(level - self.values, 0.0), self.valid)


class VecField:
    """n-component nodal samples sharing one grid and one validity mask."""

    __slots__ = ("grid", "components", "valid")

    def __init__(self, grid: Grid, components, valid=None):
        components = np.asarray(components, dtype=float)
        if components.shape != (grid.n,) + grid.shape:
            raise ValueError(
                f"components shape {components.shape} != {(grid.n,) + grid.shape}"
            )
        self.grid = grid
        self.components, self.valid = _frozen(components, valid, grid.shape, "components")

    @classmethod
    def zeros(cls, grid: Grid) -> "VecField":
        return cls(grid, np.zeros((grid.n,) + grid.shape))

    def component(self, j: int) -> Field:
        return Field(self.grid, self.components[j], self.valid)

    def magnitude(self) -> Field:
        return Field(self.grid, np.sqrt((self.components**2).sum(axis=0)), self.valid)

    def __mul__(self, scalar):
        return VecField(self.grid, self.components * float(scalar), self.valid)

    __rmul__ = __mul__


def _shift_slices(m: int, s: int):
    """Index slices so that dst[sl_dst] = src[sl_src] realizes src(x + s e_j)."""
    if s >= 0:
        return slice(0, m - s), slice(s, m)
    return slice(-s, m), slice(0, m + s)


def difference_quotient(u: Field, j: int, h_step: float) -> Field:
    """Incremental quotient (u(x + h_step e_j) - u(x)) / h_step.

    ``h_step`` is signed and must be a nonzero integer multiple of the grid
    spacing; nodes whose shifted point leaves the box are marked invalid.
    """
    grid = u.grid
    if not 0 <= j < grid.n:
        raise ValueError(f"axis {j} out of range for dimension {grid.n}")
    if h_step == 0:
        raise ValueError("h_step must be nonzero")
    ratio = h_step / grid.h
    s = int(round(ratio))
    if s == 0 or abs(ratio - s) > 1e-9:
        raise MisalignedStepError(
            f"h_step {h_step:.6g} is not an integer multiple of spacing {grid.h:.6g}"
        )
    m = grid.m
    sl_dst, sl_src = _shift_slices(m, s)
    out = np.zeros(grid.shape)
    ok = np.zeros(grid.shape, dtype=bool)
    ix_dst = (slice(None),) * j + (sl_dst,)
    ix_src = (slice(None),) * j + (sl_src,)
    out[ix_dst] = (u.values[ix_src] - u.values[ix_dst]) / h_step
    ok[ix_dst] = u.valid[ix_src] & u.valid[ix_dst]
    return Field(grid, out, ok)


def _shifted_views(a: np.ndarray, footprint: np.ndarray):
    """Yield a(x + k - c) for each offset k of a centred footprint, in C order,
    zero (False for masks) where x + k - c leaves the box."""
    radius = [(s // 2, s // 2) for s in footprint.shape]
    padded = np.pad(a, radius)
    for k in np.argwhere(footprint):
        yield padded[tuple(slice(k_i, k_i + m_i) for k_i, m_i in zip(k, a.shape))]


def erode(valid: np.ndarray, footprint: np.ndarray) -> np.ndarray:
    """Binary erosion: True where every footprint neighbour is inside the box
    and valid."""
    ok = np.ones(valid.shape, dtype=bool)
    for view in _shifted_views(valid, footprint):
        ok &= view
    return ok


def _band_clear(phi: Field, width_nodes: int) -> bool:
    """True iff phi vanishes on a band of the given node width at every face."""
    m = phi.grid.m
    w = width_nodes
    for ax in range(phi.grid.n):
        lo = (slice(None),) * ax + (slice(0, w),)
        hi = (slice(None),) * ax + (slice(m - w, m),)
        if np.any(phi.values[lo] != 0.0) or np.any(phi.values[hi] != 0.0):
            return False
    return True


def summation_by_parts_residual(u: Field, phi: Field, j: int, h_step: float) -> float:
    """|sum D_j^h u . phi + sum u . D_j^{-h} phi| * h^n, an exact-zero identity.

    Requires phi to vanish on a boundary band at least |h_step| wide; the
    returned residual is absolute (normalize by ||u||_2 ||phi||_2 to compare
    against the 1e-12 relative contract).
    """
    grid = u.grid
    s = abs(int(round(h_step / grid.h)))
    if not _band_clear(phi, s):
        raise SupportViolationError(
            f"phi must vanish on a {s}-node boundary band for step {h_step:.6g}"
        )
    hn = grid.h**grid.n
    d_u = difference_quotient(u, j, h_step)
    d_phi = difference_quotient(phi, j, -h_step)
    a = float(np.sum(d_u.values * phi.values * d_u.valid)) * hn
    b = float(np.sum(u.values * d_phi.values * d_phi.valid)) * hn
    return abs(a + b)


def gradient(u: Field) -> VecField:
    """Second-order gradient: central differences inside, one-sided at faces.

    Exact on fields whose restriction to each grid line is quadratic. When u
    carries invalid nodes the result is additionally eroded by one node so no
    stencil touches an invalid value.
    """
    grid = u.grid
    comps = np.stack(
        [np.gradient(u.values, grid.h, axis=ax, edge_order=2) for ax in range(grid.n)]
    )
    if u.all_valid:
        return VecField(grid, comps)
    cross = np.abs(np.indices((3,) * grid.n) - 1).sum(axis=0) <= 1
    return VecField(grid, comps, erode(u.valid, cross))


def central_difference(u: Field, axis: int) -> Field:
    """Pure central difference along one axis; the face layers become invalid.

    Used where one-sided boundary formulas would contaminate higher
    derivatives (repeated differentiation for C^{k,alpha} and H^k norms).
    """
    grid = u.grid
    m, h = grid.m, grid.h
    out = np.zeros(grid.shape)
    mid = (slice(None),) * axis + (slice(1, m - 1),)
    plus = (slice(None),) * axis + (slice(2, m),)
    minus = (slice(None),) * axis + (slice(0, m - 2),)
    out[mid] = (u.values[plus] - u.values[minus]) / (2.0 * h)
    ok = np.zeros(grid.shape, dtype=bool)
    ok[mid] = u.valid[plus] & u.valid[minus] & u.valid[mid]
    return Field(grid, out, ok)


def divergence(F: VecField) -> Field:
    """Central-difference divergence sum_j d_j F_j (valid strictly inside)."""
    total = None
    for j in range(F.grid.n):
        term = central_difference(F.component(j), j)
        total = term if total is None else total + term
    return total


def mollifier_weights(grid: Grid, eps: float) -> np.ndarray:
    """Unit-mass bump kernel exp(-1/(1 - |x/eps|^2)) sampled on grid offsets.

    The kernel is nonnegative, radially nonincreasing, supported strictly in
    the eps-ball, and renormalized so its discrete mass (sum times h^n) is 1
    to machine precision: the read-only array of (2s + 1)^n offsets holds
    kernel values times h^n, which sum to 1; its radius in nodes is
    s = len(weights) // 2.
    """
    if eps < 2.0 * grid.h:
        raise KernelUnderResolvedError(
            f"eps = {eps:.6g} below 2h = {2 * grid.h:.6g}"
        )
    if eps >= grid.half_width:
        raise ValueError("kernel support must sit strictly inside the box")
    s = int(np.ceil(eps / grid.h)) - 1
    offs = np.arange(-s, s + 1) * grid.h
    mesh = np.meshgrid(*([offs] * grid.n), indexing="ij")
    rho2 = sum(c**2 for c in mesh) / eps**2
    w = np.zeros(mesh[0].shape)
    inside = rho2 < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - rho2[inside]))
    w /= w.sum()
    w.setflags(write=False)
    return w


def mollify(g: Field, eps: float) -> Field:
    """Convolve with the unit-mass bump kernel; valid on the eps-interior.

    Discrete Young inequality holds exactly: for every p >= 1 the L^p norm of
    the result over its valid set is at most the L^p norm of g over the box.
    """
    weights = mollifier_weights(g.grid, eps)
    # a convolution is a correlation with the flipped kernel; taps at or
    # below machine epsilon are dropped, and the sum runs in tap order
    w = weights[(slice(None, None, -1),) * g.grid.n]
    taps = np.abs(w) > np.finfo(float).eps
    out = np.zeros(g.grid.shape)
    for view, w_k in zip(_shifted_views(g.values, taps), w[taps]):
        out += view * w_k
    ok = erode(g.valid, weights > 0)
    return Field(g.grid, np.where(ok, out, 0.0), ok)

