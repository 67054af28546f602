"""Polynomial Liouville theorem as a measurement: derivative-energy decay
across growing balls, degree detection by machine-floor annihilation, and
the superpolynomial counterexample family e^{a.x} sin(b.x).

"Entire" is unreachable on a grid; fields are regenerated from closed-form
expressions on boxes of doubling half-width with a fixed node count, so the
resolution per unit length drops with the scale while sampling stays exact.
A finite scale ladder can only refute a growth tag gamma when the window
slope of log max|u| against log(1+R) exceeds gamma somewhere, so the
discrimination tests extend the default ladder upward as needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .domain_grid import ball_region, make_grid
from .errors import (
    DegreeUndetectedError,
    InsufficientScalesError,
    NotHarmonicParametersError,
)
from .field_calculus import Field
from .norm_engine import derivative_field, log_slope, lp_norm, multiindices, _multinomial

DEFAULT_SCALES = (1.0, 2.0, 4.0, 8.0)

# Ladder used where a growth tag up to gamma = 10 must be refutable.
DISCRIMINATION_SCALES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

# Relative floor under which a derivative energy counts as identically zero.
ENERGY_RELATIVE_FLOOR = 1e-12

# Additive slack in growth-tag verification; window slopes of polynomial
# families against log R are exact, so a small constant suffices.
GROWTH_SLOPE_SLACK = 0.02

DERIVATIVE_ORDER_CAP = 3

# Smallest Laplacian-residual contraction under one refinement that the
# harmonic gate accepts (h^2 decay gives 4).
HARMONIC_RATIO_FLOOR = 2.5


def harmonic_residual(u: Field) -> float:
    """Max interior residual of the (2n+1)-point discrete Laplacian."""
    grid = u.grid
    if grid.m < 5:
        raise ValueError("need at least 5 nodes per axis")
    m, h = grid.m, grid.h
    total = np.zeros(tuple(s - 2 for s in grid.shape))
    centre = (slice(1, m - 1),) * grid.n
    for ax in range(grid.n):
        plus = tuple(
            slice(2, m) if a == ax else slice(1, m - 1) for a in range(grid.n)
        )
        minus = tuple(
            slice(0, m - 2) if a == ax else slice(1, m - 1) for a in range(grid.n)
        )
        total += (u.values[plus] - 2.0 * u.values[centre] + u.values[minus]) / h**2
    return float(np.abs(total).max())


@dataclass
class GrowthFamily:
    """One closed-form generator sampled on boxes of increasing half-width.

    ``gamma`` is the claimed growth tag |u| <= C (1 + |x|)^gamma. Fields are
    cached per scale; every field must pass the harmonic gate before the
    scans trust it.
    """

    generator: object  # callable (*coords) -> values
    gamma: float
    scales: tuple = DEFAULT_SCALES
    m: int = 257
    dimension: int = 2
    _cache: dict = dfield(default_factory=dict, repr=False)

    def __post_init__(self):
        self.scales = tuple(sorted(float(s) for s in self.scales))
        distinct = len(set(self.scales))
        if distinct < 4:
            raise InsufficientScalesError(f"need >= 4 distinct scales, got {distinct}")
        if not all(s > 0 for s in self.scales):
            raise ValueError(f"scales must be positive, got {self.scales}")

    def field_at(self, scale: float) -> Field:
        if scale not in self._cache:
            grid = make_grid(self.dimension, scale, self.m)
            self._cache[scale] = Field.from_function(grid, self.generator)
        return self._cache[scale]

    def harmonic_gate(self) -> bool:
        """Accept the generator if each scale's Laplacian residual is at
        machine floor or contracts like h^2 under one refinement."""
        for scale in self.scales:
            u = self.field_at(scale)
            res = harmonic_residual(u)
            if res / max(float(np.abs(u.values).max()), 1.0) > 1e-10:
                fine = Field.from_function(make_grid(self.dimension, scale, 2 * self.m - 1), self.generator)
                if not res / max(harmonic_residual(fine), 1e-300) >= HARMONIC_RATIO_FLOOR:
                    return False
        return True


def counterexample_generator(a, b):
    """(*coords) -> e^{a.x} sin(b.x): entire harmonic iff |a| = |b| and a.b = 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if abs(np.linalg.norm(a) - np.linalg.norm(b)) > 1e-12:
        raise NotHarmonicParametersError(f"|a| = {np.linalg.norm(a)} != |b| = {np.linalg.norm(b)}")
    if abs(float(a @ b)) > 1e-12:
        raise NotHarmonicParametersError(f"a.b = {float(a @ b)} != 0")

    def gen(*coords):
        arg_a = sum(ai * c for ai, c in zip(a, coords))
        arg_b = sum(bi * c for bi, c in zip(b, coords))
        return np.exp(arg_a) * np.sin(arg_b)

    return gen


def _order_energy(u: Field, order: int, radius: float) -> float:
    """sum over B_radius of |D^order u|^2 h^n, full-tensor convention."""
    grid = u.grid
    region = ball_region(grid, 0.0, radius)
    hn = grid.h**grid.n
    total = 0.0
    for beta in multiindices(grid.n, order):
        d = derivative_field(u, beta)
        mask = region.mask & d.valid
        total += _multinomial(beta) * float((d.values[mask] ** 2).sum() * hn)
    return total


@dataclass
class EnergyScan:
    order: int
    scales: np.ndarray
    energies: np.ndarray
    slope: float
    window_slopes: np.ndarray
    chain_ratios: list  # per scale: list of link ratios j -> j+1
    at_floor: bool


def derivative_energy_scan(family: GrowthFamily, k: int) -> EnergyScan:
    """log-log slope of the order-k derivative energy on B_{R/2^k} vs R.

    For an exact degree-d harmonic polynomial the slope is 2(d - k) + n; in
    general 2 gamma + n - 2k is the upper envelope. Each scale also reports
    the chained Caccioppoli link ratios
        ratio_j = ||D^{j+1}u||^2_{B_{rho/2}} * (rho/2)^2 / ||D^j u||^2_{B_rho},
    rho = R / 2^j, whose scale stability witnesses the decay chain.
    """
    if k > DERIVATIVE_ORDER_CAP:
        raise ValueError(f"derivative order capped at {DERIVATIVE_ORDER_CAP}")
    scales = np.asarray(family.scales)
    # radii[i][j] = R_i / 2^j and E[i][j] the order-j energy on that ball, j = 0..k
    radii = [[R * 2.0**-j for j in range(k + 1)] for R in scales]
    E = [[_order_energy(family.field_at(R), j, rho) for j, rho in enumerate(rs)] for R, rs in zip(scales, radii)]
    energies, base = np.array([e[k] for e in E]), np.array([e[0] for e in E])
    chain = [
        [e[j + 1] * rs[j + 1] ** 2 / e[j] if e[j] > 0 else float("nan") for j in range(k)]
        for e, rs in zip(E, radii)
    ]

    at_floor = bool(np.all(energies <= ENERGY_RELATIVE_FLOOR * np.maximum(base, 1e-300)))
    if at_floor:
        slope = float("nan")
        window = np.full(len(scales) - 1, np.nan)
    else:
        slope, window = log_slope(scales, np.maximum(energies, 1e-300))
    return EnergyScan(
        order=k, scales=scales, energies=energies, slope=slope,
        window_slopes=window, chain_ratios=chain, at_floor=at_floor,
    )


def verify_growth(family: GrowthFamily) -> dict:
    """Window-slope growth verification of the tag gamma.

    Computes per-window slopes of log max|u|_{B_R} against log R; the tag is
    verified when the largest slope stays at or below gamma plus a small
    slack. For ladders with R >= 1, sup <= C R^gamma implies the claimed
    bound sup <= C (1+R)^gamma, and polynomial families realize their degree
    as an exact slope. A tag can only be *refuted* when the ladder reaches
    windows whose slope exceeds gamma, hence the extended discrimination
    ladder for superpolynomial fields.
    """
    sups = []
    for scale in family.scales:
        u = family.field_at(scale)
        region = ball_region(u.grid, 0.0, scale)
        sups.append(lp_norm(u, np.inf, region).value)
    sups = np.asarray(sups)
    scales = np.asarray(family.scales)
    if np.all(sups == 0.0):
        return {"verified": True, "max_slope": 0.0}
    _, slopes = log_slope(scales, np.maximum(sups, 1e-300))
    max_slope = float(slopes.max())
    return {"verified": max_slope <= family.gamma + GROWTH_SLOPE_SLACK, "max_slope": max_slope}


def polynomial_degree_detect(family: GrowthFamily) -> int:
    """Smallest k whose derivative energies sit at the machine floor on every
    scale, minus one. Requires the harmonic gate; superpolynomial fields
    raise (no admissible k up to the cap)."""
    if not family.harmonic_gate():
        raise NotHarmonicParametersError("family fails the harmonic residual gate")
    for k in range(1, DERIVATIVE_ORDER_CAP + 1):
        scan = derivative_energy_scan(family, k)
        if scan.at_floor:
            return k - 1
    raise DegreeUndetectedError(
        f"no derivative order up to {DERIVATIVE_ORDER_CAP} annihilates the field"
    )
