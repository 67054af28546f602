"""De Giorgi truncation iteration: nested level-set energies, the exponent
bookkeeping gamma, the no-spike implication, and the normalized sup bound.

The smallness threshold delta exists only existentially in the theory; here
it is the largest value that keeps a training ensemble inside the unit band,
computed in closed form, clamped below 1 and stored on the run's parameters.
Almost-everywhere conclusions become nodal max checks with an O(h) slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .caccioppoli import EstimateReport, rhs_terms
from .domain_grid import MIN_BAND_NODES, ball_region, check_radii, nested_radii, truncation_levels
from .elliptic_solver import require_admissible
from .errors import (
    CalibrationRequiredError,
    GridTooCoarseError,
    InadmissibleExponentsError,
    PreconditionFailureError,
)
from .norm_engine import log_slope, lp_norm

# Nodal slack for almost-everywhere conclusions: max u <= 1 + NO_SPIKE_SLACK*h.
NO_SPIKE_SLACK = 2.0

# Energies below this floor count as identically zero in regression windows.
ENERGY_FLOOR = 1e-14

# Safety factor on the smallest admissible tau in two dimensions.
TAU_SAFETY_2D = 1.25

# Largest calibrated delta: DeGiorgiParams needs delta in the open interval (0, 1).
DELTA_CEILING = 1.0 - 1e-9


def default_tau(n: int, p: float, q: float) -> float:
    """Sobolev exponent 2n/(n-2) for n >= 3; for n = 2 the smallest value
    meeting both strict constraints, widened by a safety factor. The
    exponents are checked first, so p = 1 or q = 2 never divides by zero."""
    require_admissible(n, p, q)
    if n >= 3:
        return 2.0 * n / (n - 2.0)
    return TAU_SAFETY_2D * max(2.0 * p / (p - 1.0), 2.0 * q / (q - 2.0))


def gamma_exponent(n: int, p: float, q: float, tau: float) -> float:
    """Iteration gain min{1 - 2/tau, 2 - 4/tau - 2/p, 1 - 2/tau - 2/q} > 0."""
    require_admissible(n, p, q)
    if n >= 3 and not math.isclose(tau, 2.0 * n / (n - 2.0), rel_tol=1e-12):
        raise InadmissibleExponentsError(
            f"n = {n} requires tau = 2n/(n-2) = {2 * n / (n - 2)}, got {tau}", failing_term="tau"
        )
    if n == 2 and not (tau > 2 * p / (p - 1) and tau > 2 * q / (q - 2)):
        raise InadmissibleExponentsError(
            f"n = 2 requires tau > max(2p/(p-1), 2q/(q-2)) = "
            f"{max(2 * p / (p - 1), 2 * q / (q - 2))}, got {tau}",
            failing_term="tau",
        )
    terms = {
        "sobolev": 1.0 - 2.0 / tau,
        "forcing": 2.0 - 4.0 / tau - 2.0 / p,
        "field": 1.0 - 2.0 / tau - 2.0 / q,
    }
    worst = min(terms, key=terms.get)
    gamma = terms[worst]
    if gamma <= 0:
        raise InadmissibleExponentsError(
            f"gamma = {gamma:.4g} <= 0; failing term: {worst}", failing_term=worst
        )
    return gamma


@dataclass
class DeGiorgiParams:
    """Exponents, radii and iteration depth for one truncation run; the
    Sobolev exponent ``tau`` and the gain ``gamma`` are derived from n, p, q."""

    n: int
    p: float
    q: float
    r: float
    R: float
    k_max: int = 4
    delta: float | None = None

    def __post_init__(self):
        self.tau = default_tau(self.n, self.p, self.q)
        check_radii(self.r, self.R)
        if self.k_max < 3:
            raise ValueError(f"k_max must be >= 3, got {self.k_max}")
        if self.delta is not None and not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        self.gamma = gamma_exponent(self.n, self.p, self.q, self.tau)

    def require_resolved_ladder(self, h: float) -> None:
        """Raise unless the finest radius step (R - r) 2^-k_max spans MIN_BAND_NODES h."""
        step = (self.R - self.r) * 2.0 ** (-self.k_max)
        if step < MIN_BAND_NODES * h:
            raise GridTooCoarseError(f"r_kmax - r = {step:.4g} < {MIN_BAND_NODES}h; shrink k_max or refine the grid")

    @property
    def series_sums(self) -> tuple:
        """Diagnostic sums S1 = sum i (1+gamma)^-i and S2 = sum (1+gamma)^-i."""
        g = self.gamma
        s2 = (1.0 + g) / g
        s1 = (1.0 + g) / g**2
        return s1, s2


@dataclass
class IterationTrace:
    """Level/radius ladders, energies and level-set node counts."""

    b: np.ndarray
    r: np.ndarray
    E: np.ndarray
    level_counts: np.ndarray  # nodes of {u > b_{k+1}} within B_{rho_k}
    fitted_exponent: float
    regression_pairs: int
    sign: str = "plus"

    def monotone(self) -> bool:
        return bool(np.all(np.diff(self.E) <= 1e-15 * max(1.0, self.E[0])))


def _fit_decay_exponent(E: np.ndarray):
    """Slope of log E_{k+1} against log E_k over the above-floor window."""
    pairs = [(x, y) for x, y in zip(E[:-1], E[1:]) if x > ENERGY_FLOOR and y > ENERGY_FLOOR]
    if len(pairs) == 1:
        # a single transition still witnesses the gain against E_0 <= delta < 1
        x, y = math.log(pairs[0][0]), math.log(pairs[0][1])
        return y / x if x != 0 else float("nan"), 1
    if len(pairs) < 2:
        return float("nan"), len(pairs)
    slope, _ = log_slope(*zip(*pairs))
    return slope, len(pairs)


def _positive_energy(u: np.ndarray, level: float, mask: np.ndarray) -> float:
    """sum over ``mask`` of (u - level)_+^2, unscaled: energies multiply it
    by h^n, while the sign="auto" comparison must not, since the scaling
    can round a strict inequality into a tie."""
    return float((np.maximum(u - level, 0.0)[mask] ** 2).sum())


def truncation_sequence(u, params: DeGiorgiParams, sign: str = "plus") -> IterationTrace:
    """Energies E_k = sum_{B_{r_k}} (u - b_k)_+^2 h^n of the Field ``u`` down
    the nested ladders.

    ``sign`` picks the truncation side: "plus" tracks (u - b_k)_+, "minus"
    the symmetric (-u - b_k)_+, and "auto" whichever side carries the larger
    level-zero energy. ``level_counts[k]`` counts the nodes of
    {u > b_{k+1}} inside B_{rho_k}, rho_k = (r_k + r_{k+1})/2.
    """
    grid = u.grid
    params.require_resolved_ladder(grid.h)
    if sign not in ("plus", "minus", "auto"):
        raise ValueError(f"sign must be plus, minus or auto, got {sign}")
    b = truncation_levels(params.k_max)
    radii = nested_radii(params.r, params.R, params.k_max)
    hn = grid.h**grid.n
    u = u.values
    dist = grid.radius_from(np.zeros(grid.n))
    if sign == "auto":
        outer = dist < params.R
        sign = "plus" if _positive_energy(u, 0.0, outer) >= _positive_energy(-u, 0.0, outer) else "minus"
    if sign == "minus":
        u = -u

    E = np.empty(params.k_max + 1)
    for k in range(params.k_max + 1):
        E[k] = _positive_energy(u, b[k], dist < radii[k]) * hn

    counts = np.zeros(params.k_max, dtype=np.int64)
    for k in range(params.k_max):
        rho = 0.5 * (radii[k] + radii[k + 1])
        counts[k] = int(((u > b[k + 1]) & (dist < rho)).sum())

    fitted, pairs = _fit_decay_exponent(E)
    return IterationTrace(
        b=b, r=radii, E=E, level_counts=counts,
        fitted_exponent=fitted, regression_pairs=pairs, sign=sign,
    )


@dataclass
class NoSpikeReport:
    plus_verified: bool
    minus_verified: bool

    @property
    def verified(self) -> bool:
        return self.plus_verified and self.minus_verified


def no_spike_verify(u, data_norm: float, params: DeGiorgiParams) -> NoSpikeReport:
    """If the data norms ||f||_p + ||F||_q <= 1 and the level-zero energies
    are below delta, the solution u stays within [-1 - Ch, 1 + Ch] on the
    inner ball.

    ``data_norm`` is ||f||_p + ||F||_q on the outer ball for the data u
    solves, as ``data_norm(sol, params)`` gives it. Raises on unverified
    hypotheses; a false conclusion is returned as an unverified report,
    never raised.
    """
    if params.delta is None:
        raise CalibrationRequiredError("delta not calibrated; run calibrate_delta first")
    grid = u.grid
    outer = ball_region(grid, 0.0, params.R)
    inner = ball_region(grid, 0.0, params.r)
    if data_norm > 1.0 + 1e-12:
        raise PreconditionFailureError(f"data norms {data_norm:.4g} exceed 1")
    hn = grid.h**grid.n
    u = u.values
    e0_plus = _positive_energy(u, 0.0, outer.mask) * hn
    e0_minus = _positive_energy(-u, 0.0, outer.mask) * hn
    # normalized positive solutions sit exactly at E_0 = delta; allow rounding
    ceiling = params.delta * (1.0 + 1e-9)
    if e0_plus > ceiling or e0_minus > ceiling:
        raise PreconditionFailureError(
            f"level-zero energies ({e0_plus:.4g}, {e0_minus:.4g}) exceed delta = {params.delta:.4g}"
        )
    tol = NO_SPIKE_SLACK * grid.h
    return NoSpikeReport(
        plus_verified=float(u[inner.mask].max()) <= 1.0 + tol,
        minus_verified=float(u[inner.mask].min()) >= -1.0 - tol,
    )


def _outer_terms(sol, params: DeGiorgiParams) -> dict:
    """The rhs_terms ||u||_2, ||f||_p, ||F||_q of ``sol`` on the outer ball."""
    return rhs_terms(sol, params.p, params.q, ball_region(sol.grid, 0.0, params.R))


def data_norm(sol, params: DeGiorgiParams) -> float:
    """||f||_p + ||F||_q of the data of ``sol`` on the outer ball: the
    hypothesis no_spike_verify checks against 1."""
    _, f_lp, F_lq = _outer_terms(sol, params).values()
    return f_lp + F_lq


def normalize_solution(sol, params: DeGiorgiParams):
    """Scale (u, f, F, g) by theta = sqrt(delta) / (||u||_2 + ||f||_p +
    ||F||_q) on the outer ball; exact by linearity of the solution map."""
    if params.delta is None:
        raise CalibrationRequiredError("delta not calibrated; run calibrate_delta first")
    theta = math.sqrt(params.delta) / sum(_outer_terms(sol, params).values())
    return sol.scaled(theta), theta


def training_ratio(sol, params: DeGiorgiParams) -> tuple:
    """(sup, denom, data norm) of one training member: ||u||_inf on the
    inner ball, ||u||_2 + ||f||_p + ||F||_q on the outer ball, and its part
    ||f||_p + ||F||_q, which data_norm gives, from one evaluation of each."""
    u_l2, f_lp, F_lq = _outer_terms(sol, params).values()
    sup = lp_norm(sol.u, np.inf, ball_region(sol.grid, 0.0, params.r))
    return sup, u_l2 + f_lp + F_lq, f_lp + F_lq


def calibrate_delta(ratios, params: DeGiorgiParams) -> tuple:
    """Closed-form calibration on the ``training_ratio`` triples (sup,
    denom, data norm) of a training ensemble; returns (delta, bound).

    bound = min (denom/sup)^2 over the members with sup > 0 is the largest
    delta with sqrt(delta) sup/denom <= 1 on each. delta = min(bound,
    DELTA_CEILING), stepped down by ulps while rounding fails that check, is
    also stored on ``params``."""
    if not ratios:
        raise ValueError("calibrate_delta needs at least one training member")
    for k, (_, denom, _) in enumerate(ratios):
        if denom == 0:
            raise PreconditionFailureError(f"training member {k} has zero data norm; it cannot be normalized")

    def passes(delta: float) -> bool:
        return all(math.sqrt(delta) * sup / denom <= 1.0 for sup, denom, _ in ratios)

    bound = min(((denom / sup) ** 2 for sup, denom, _ in ratios if sup > 0), default=math.inf)
    delta = min(bound, DELTA_CEILING)
    while not passes(delta):
        delta = float(np.nextafter(delta, 0.0))
    params.delta = delta
    return delta, bound


def linf_bound(sol, params: DeGiorgiParams) -> EstimateReport:
    """sup bound report: ||u||_inf(B_r) vs delta^{-1/2} (||u||_2 + ||f||_p + ||F||_q)."""
    if params.delta is None:
        raise CalibrationRequiredError("delta not calibrated; run calibrate_delta first")
    grid = sol.grid
    lhs = lp_norm(sol.u, np.inf, ball_region(grid, 0.0, params.r))
    terms = _outer_terms(sol, params)
    denom = sum(terms.values())
    factor = 1.0 / math.sqrt(params.delta)
    comps = {name: factor * value for name, value in terms.items()}
    theta = math.sqrt(params.delta) / denom if denom > 0 else None
    return EstimateReport(
        "linf_bound", lhs, comps, (params.r, params.R), grid.m,
        sol.problem.fingerprint(),
        extra={"delta": params.delta, "theta": theta},
    )
