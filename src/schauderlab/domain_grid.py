"""Uniform tensor grids on symmetric boxes, ball node masks, radial cutoffs.

All measurements downstream happen on balls strictly inside the open box
(-w, w)^n, so this module owns the geometry: node coordinates that hit the
box corners and the origin exactly, strict-inequality ball masks, the nested
radius and truncation-level ladders used by the iteration machinery, and
smoothed radial cutoff fields with a certified discrete gradient bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RegionEscapesDomainError, UnresolvableCutoffError

# Slack constant c in the documented cutoff gradient bound
#   max |grad_h eta| <= 2/(R-r) + CUTOFF_GRAD_SLACK * h.
# The analytic ramp slope is 3/(2(R-r)); with the 4h minimum band the central
# difference stays under 2/(R-r) with room to spare, so this value is generous.
CUTOFF_GRAD_SLACK = 4.0

# Minimum cutoff transition band, in units of grid spacing. Thinner bands are
# rejected rather than silently aliased.
MIN_BAND_NODES = 4


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on the box (-half_width, half_width)^n.

    ``m`` is the node count per axis and must be odd so the origin is a node;
    the spacing is h = 2*half_width/(m-1). Coordinates are built by mirroring
    the nonnegative half-axis, which reproduces 0 and +/-half_width exactly.
    """

    n: int
    half_width: float
    m: int
    axis: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.n}")
        if self.m < 3:
            raise ValueError(f"need at least 3 nodes per axis, got {self.m}")
        if self.m % 2 == 0:
            raise ValueError(f"node count must be odd so the origin is a node, got {self.m}")
        if not self.half_width > 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        half = np.linspace(0.0, self.half_width, self.m // 2 + 1)
        ax = np.concatenate([-half[:0:-1], half])
        ax.setflags(write=False)
        object.__setattr__(self, "axis", ax)

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.m - 1)

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.n

    @property
    def num_nodes(self) -> int:
        return self.m**self.n

    def coords(self) -> list:
        """Per-axis coordinate arrays of shape ``self.shape`` (ij indexing)."""
        return np.meshgrid(*([self.axis] * self.n), indexing="ij")

    def axis_views(self) -> list:
        """Per-axis coordinates as views that broadcast to ``self.shape``:
        view j runs along dimension j and has length 1 on the others."""
        return [self.axis.reshape((-1,) + (1,) * (self.n - 1 - j)) for j in range(self.n)]

    def radius_from(self, center) -> np.ndarray:
        """Nodal Euclidean distance from ``center``."""
        center = np.asarray(center, dtype=float)
        if center.shape != (self.n,):
            raise ValueError(f"center must have {self.n} components")
        r2 = np.zeros(self.shape)
        for j, c in enumerate(self.axis_views()):
            r2 += (c - center[j]) ** 2
        return np.sqrt(r2)

    def interior_mask(self, margin: int = 1) -> np.ndarray:
        """Nodes at least ``margin`` nodes away from every face."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[(slice(margin, self.m - margin),) * self.n] = True
        return mask


def make_grid(n: int, half_width: float, m: int) -> Grid:
    """Build a grid; rejects even or too-small m and nonpositive half_width."""
    return Grid(n=n, half_width=float(half_width), m=int(m))


@dataclass(frozen=True)
class Region:
    """Strict-inequality node mask of the ball |x - center| < radius.

    Strictness keeps nested families genuinely nested at every resolution.
    Build one with :func:`ball_region`, which keeps the ball inside the open
    box (faces may be touched only by the sphere itself, never by selected
    nodes), or :func:`box_region`, whose infinite radius selects every node.
    """

    grid: Grid
    center: tuple
    radius: float
    mask: np.ndarray = field(init=False, compare=False, repr=False)
    # the Holder scan's Morton layout of ``mask``, set on the region's first
    # scan by norm_engine and freed with the region
    scan_layout: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        mask = self.grid.radius_from(self.center) < self.radius
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @property
    def count(self) -> int:
        return int(self.mask.sum())


def ball_region(grid: Grid, center, radius: float) -> Region:
    """Ball mask; a scalar ``center`` is shorthand for that value on every axis."""
    if np.ndim(center) == 0:
        center = (center,) * grid.n
    center, radius = tuple(float(c) for c in center), float(radius)
    if len(center) != grid.n:
        raise ValueError(f"center must have {grid.n} components")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    w = grid.half_width
    reach = max(abs(c) for c in center) + radius
    if reach > w * (1.0 + 1e-12):
        raise RegionEscapesDomainError(
            f"ball B({center}, {radius}) reaches {reach:.6g} > half_width {w}"
        )
    return Region(grid=grid, center=center, radius=radius)


def box_region(grid: Grid) -> Region:
    """The whole box: the region of infinite radius about the origin."""
    return Region(grid=grid, center=(0.0,) * grid.n, radius=math.inf)


def check_radii(r: float, R: float, grid: Grid | None = None) -> None:
    """Raise unless 0 < r < R and, on a ``grid``, B_R stays in the box and
    the band R - r spans MIN_BAND_NODES spacings, as a cutoff needs."""
    if not 0 < r < R:
        raise ValueError(f"need 0 < r < R, got r={r}, R={R}")
    if grid is None:
        return
    if R > grid.half_width * (1.0 + 1e-12):
        raise RegionEscapesDomainError(f"outer radius {R} exceeds half_width {grid.half_width}")
    if R - r < MIN_BAND_NODES * grid.h:
        raise UnresolvableCutoffError(
            f"band R-r = {R - r:.6g} thinner than {MIN_BAND_NODES}h = {MIN_BAND_NODES * grid.h:.6g}"
        )


def nested_radii(r: float, R: float, k_max: int) -> np.ndarray:
    """Radius ladder r_k = (R - r) 2^{-k} + r for k = 0..k_max.

    Strictly decreasing from r_0 = R toward the limit r; consecutive gaps
    satisfy r_k - r_{k+1} = 2^{-(k+1)}(R - r) exactly.
    """
    check_radii(r, R)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    k = np.arange(k_max + 1)
    return (R - r) * np.exp2(-k.astype(float)) + r


def truncation_levels(k_max: int) -> np.ndarray:
    """Level ladder b_k = 1 - 2^{-k} for k = 0..k_max, increasing from 0 toward 1."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    k = np.arange(k_max + 1)
    return 1.0 - np.exp2(-k.astype(float))


def cutoff(grid: Grid, r: float, R: float):
    """Radial cutoff Field eta: 1 on B_r, 0 outside B_R, a cubic-smoothstep
    ramp between, over a resolvable transition band.

    Profile: eta = 1 - s(t) with s the cubic smoothstep of t = (|x|-r)/(R-r),
    clipped to [0, 1]. Plateau and support values are exact (1.0 and 0.0).
    The nodal field satisfies the sandwich chi(B_r) <= eta <= chi(B_R) and the
    discrete gradient bound max |grad_h eta| <= 2/(R-r) + CUTOFF_GRAD_SLACK*h.
    """
    from .field_calculus import Field

    check_radii(r, R, grid)
    t = np.clip((grid.radius_from(np.zeros(grid.n)) - r) / (R - r), 0.0, 1.0)
    eta = 1.0 - t * t * (3.0 - 2.0 * t)
    return Field(grid, eta)
