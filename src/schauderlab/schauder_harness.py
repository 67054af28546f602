"""Interior regularity estimates as experiments.

The a priori theorems are contradiction proofs; this harness inverts them
into measurements: estimate ratios that must stay finite and stable under
refinement for admissible Holder exponents, the singular radial family that
attains the exponent threshold, blow-up rescalings around seminorm-
maximizing node pairs, the mollification-approximation scheme, and the
iterated bootstrap to higher orders. Limit passages themselves (compactness
arguments) are out of scope; their computable inputs and outputs are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .caccioppoli import EstimateReport
from .domain_grid import Grid, ball_region, cutoff, make_grid
from .elliptic_solver import (
    CoefficientField,
    DiscreteSolution,
    EllipticProblem,
    solve_dirichlet,
)
from .errors import (
    DataRegularityMissingError,
    GridTooCoarseError,
    InadmissibleExponentsError,
    InsufficientShellsError,
    NoBlowupPairError,
    SupportViolationError,
    WrongVariantError,
)
from .field_calculus import (
    Field,
    VecField,
    central_difference,
    gradient,
    mollify,
)
from .norm_engine import (
    _holder_pairs,
    _holder_scan_mask,
    ck_alpha_norm,
    hk_norm,
    hk_norm_vec,
    holder_seminorm,
    holder_seminorm_vec,
    lp_norm,
    lp_norm_vec,
)

# Relative headroom when flagging growth-bound violations on shells.
GROWTH_VIOLATION_HEADROOM = 1.10

# Seminorm level below which a blow-up collapses to exact cancellation.
DEGENERATE_SEMINORM_FLOOR = 1e-12


@dataclass
class AdmissibleAlpha:
    """Exponent threshold: raw formula value and its cap at the open unit bound."""

    raw: float
    capped: bool

    @property
    def effective(self) -> float:
        return min(self.raw, 1.0)

    def admits(self, alpha: float) -> bool:
        return 0 < alpha < 1 and alpha <= self.raw


def admissible_alpha(n: int, p: float, q: float | None = None, order: int = 0) -> AdmissibleAlpha:
    """Largest admissible Holder exponent for the interior estimates.

    order 0: alpha <= min(2 - n/p, 1 - n/q), needing p > n/2 and q > n;
    order 1: alpha <= 1 - n/p, needing p > n. The raw formula value can
    reach or exceed 1; the open constraint alpha < 1 is reported as a cap.
    """
    if order == 0:
        if q is None:
            raise InadmissibleExponentsError("order 0 needs both p and q")
        if not p > n / 2:
            raise InadmissibleExponentsError(f"need p > n/2 = {n / 2}, got {p}", failing_term="p")
        if not q > n:
            raise InadmissibleExponentsError(f"need q > n = {n}, got {q}", failing_term="q")
        raw = min(2.0 - n / p, 1.0 - n / q)
    elif order == 1:
        if not p > n:
            raise InadmissibleExponentsError(f"need p > n = {n}, got {p}", failing_term="p")
        raw = 1.0 - n / p
    else:
        raise ValueError(f"order must be 0 or 1, got {order}")
    return AdmissibleAlpha(raw=raw, capped=raw >= 1.0)


@dataclass
class SchauderConfig:
    """Estimate order, Holder exponent, data exponents and radii."""

    order: int
    alpha: float
    p: float
    r: float
    R: float
    q: float | None = None
    window_radius: float = 2.0
    window_m: int = 65
    blowup_steps: int = 3

    def __post_init__(self):
        if self.order not in (0, 1):
            raise ValueError("order must be 0 or 1")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0 < self.r < self.R:
            raise ValueError(f"need 0 < r < R, got ({self.r}, {self.R})")

    def check_admissible(self, n: int) -> None:
        """Admissibility depends on the dimension, so it is gated at use."""
        gate = admissible_alpha(n, self.p, self.q, self.order)
        if not gate.admits(self.alpha):
            raise InadmissibleExponentsError(
                f"alpha = {self.alpha} exceeds threshold {gate.raw:.4g} "
                f"for order {self.order}, p = {self.p}, q = {self.q}"
            )


def _holder_norm_vec(F: VecField, alpha: float, region) -> float:
    """max over components of sup + seminorm (vector C^{0,alpha} norm)."""
    best = 0.0
    for j in range(F.grid.n):
        comp = F.component(j)
        val = lp_norm(comp, np.inf, region).value + holder_seminorm(comp, alpha, region).value
        best = max(best, val)
    return best


def _holder_certified(problem: EllipticProblem, name: str) -> bool:
    """A field is Holder-certified directly or via a Lipschitz + sup pair
    (interpolation: [g]_alpha <= Lip^alpha (2 sup)^(1-alpha))."""
    certs = problem.certificates
    return f"{name}_holder" in certs or (
        f"{name}_lipschitz" in certs and f"{name}_sup" in certs
    )


def schauder_ratio(sol: DiscreteSolution, cfg: SchauderConfig) -> EstimateReport:
    """C^{order,alpha} interior norm against the data norms of the estimate.

    order 0: ||u||_{C^{0,a}(B_r)} vs ||u||_2 + ||f||_p + ||F||_q on B_R;
    order 1: ||u||_{C^{1,a}(B_r)} vs ||u||_2 + ||f||_p + ||F||_{C^{0,a}} on B_R,
    requiring a Holder certificate on F.
    """
    grid = sol.grid
    cfg.check_admissible(grid.n)
    inner = ball_region(grid, 0.0, cfg.r)
    outer = ball_region(grid, 0.0, cfg.R)
    if cfg.order == 1 and not _holder_certified(sol.problem, "F"):
        raise DataRegularityMissingError("order-1 estimate needs a Holder certificate on F")
    lhs = ck_alpha_norm(sol.u, cfg.order, cfg.alpha, inner).value
    comps = {
        "u_l2": lp_norm(sol.u, 2, outer).value,
        "f_lp": lp_norm(sol.problem.f, cfg.p, outer).value,
    }
    if cfg.order == 0:
        comps["F_lq"] = lp_norm_vec(sol.problem.F, cfg.q, outer).value
    else:
        comps["F_c0a"] = _holder_norm_vec(sol.problem.F, cfg.alpha, outer)
    return EstimateReport(
        f"schauder_c{cfg.order}alpha", lhs, comps, (cfg.r, cfg.R), grid.m,
        sol.problem.fingerprint(),
        extra={"alpha": cfg.alpha, "p": cfg.p, "q": cfg.q, "order": cfg.order},
    )


def measure_pointwise_exponent(
    u: Field, point, r_min: float, r_max: float, shells: int = 6
) -> dict:
    """Holder exponent of u at a point by shell regression on grid nodes.

    Fits the slope of log max_{shell} |u(x) - u(point)| against log radius
    over a geometric annulus ladder; no interpolation is involved.
    """
    grid = u.grid
    point = np.asarray(point, dtype=float)
    dist = grid.radius_from(point)
    idx = tuple(int(np.argmin(np.abs(grid.axis - c))) for c in point)
    base = u.values[idx]
    radii = np.geomspace(r_min, r_max, shells + 1)
    logs_r, logs_v = [], []
    for lo, hi in zip(radii[:-1], radii[1:]):
        ring = (dist > lo) & (dist <= hi) & u.valid
        if not ring.any():
            continue
        peak = float(np.abs(u.values[ring] - base).max())
        if peak > 0:
            logs_r.append(math.log(hi))
            logs_v.append(math.log(peak))
    if len(logs_r) < 3:
        raise InsufficientShellsError(f"only {len(logs_r)} populated shells in [{r_min}, {r_max}]")
    slope = float(np.polyfit(logs_r, logs_v, 1)[0])
    return {"exponent": slope, "shells": len(logs_r)}


def sobolev_estimate_check(
    sol: DiscreteSolution, k: int, r: float, R: float, sweep: int = 2
) -> EstimateReport:
    """||u||_{H^k(B_r)} against ||u||_{L2(B_R)} + ||F||_{H^{k-1}(B_R)}.

    Needs f == 0 and a Lipschitz certificate on A (order k-2 smoothness for
    k = 3). The returned report carries a (R - r) sweep: the same ratio with
    the band halved ``sweep`` times, tracking the (R-r)^-2 blow-up law.
    """
    if k not in (2, 3):
        raise ValueError(f"order k must be 2 or 3, got {k}")
    if np.abs(sol.problem.f.values).max() != 0.0:
        raise WrongVariantError("H^k estimate variant needs f == 0 (fold f into F first)")
    A = sol.problem.A
    if A.lipschitz_bound is None:
        raise DataRegularityMissingError("H^k estimate needs a Lipschitz certificate on A")
    if k == 3 and not getattr(A, "smooth_certified", False):
        raise DataRegularityMissingError("k = 3 needs a C^{1,1} certificate on A")
    grid = sol.grid
    inner, outer = ball_region(grid, 0.0, r), ball_region(grid, 0.0, R)
    lhs = hk_norm(sol.u, k, inner).value
    comps = {
        "u_l2": lp_norm(sol.u, 2, outer).value,
        "F_hk1": hk_norm_vec(sol.problem.F, k - 1, outer).value,
    }
    report = EstimateReport(
        f"h{k}_estimate", lhs, comps, (r, R), grid.m, sol.problem.fingerprint()
    )
    rows = []
    for i in range(sweep + 1):
        ri = R - (R - r) / 2**i
        if ri >= grid.half_width - (k + 1) * grid.h:
            break
        lhs_i = hk_norm(sol.u, k, ball_region(grid, 0.0, ri)).value
        ratio_i = lhs_i / max(sum(comps.values()), 1e-300)
        rows.append({"band": R - ri, "lhs": lhs_i, "ratio": ratio_i})
    report.extra["band_sweep"] = rows
    return report


def _entry_derivative(A: CoefficientField, i: int) -> np.ndarray:
    """Central-difference derivative of every entry along axis i (interior)."""
    n = A.grid.n
    out = np.zeros_like(A.entries)
    for a in range(n):
        for b in range(n):
            out[a, b] = central_difference(Field(A.grid, A.entries[a, b]), i).values
    return out


def derivative_equation_residual(sol: DiscreteSolution, i: int, phi: Field) -> float:
    """Weak residual of the differentiated equation for u_i = d_i u:
    |sum A grad u_i . grad phi + sum (d_i A grad u + f e_i + d_i F) . grad phi| h^n.

    The f e_i term realizes d_i f = div(f e_i) and drops out for the
    zero-forcing variant. phi must vanish on a 3-node boundary band (all
    derivative stencils then see only valid nodes where phi is live). O(h)
    for smooth data.
    """
    grid = sol.grid
    if sol.problem.A.lipschitz_bound is None:
        raise DataRegularityMissingError("differentiated equation needs Lipschitz A")
    if "F_lipschitz" not in sol.problem.certificates and np.abs(sol.problem.F.components).max() > 0:
        raise DataRegularityMissingError("differentiated equation needs differentiable F")
    m = grid.m
    for ax in range(grid.n):
        lo = (slice(None),) * ax + (slice(0, 3),)
        hi = (slice(None),) * ax + (slice(m - 3, m),)
        if np.any(phi.values[lo] != 0.0) or np.any(phi.values[hi] != 0.0):
            raise SupportViolationError("phi must vanish on the outer three node layers")
    hn = grid.h**grid.n
    u_i = central_difference(sol.u, i)
    grad_ui = gradient(u_i)
    gphi = gradient(phi).components
    a_grad = np.einsum("ab...,b...->a...", sol.problem.A.entries, grad_ui.components)
    live = grad_ui.valid
    t1 = float((a_grad * gphi)[:, live].sum()) * hn
    dA = _entry_derivative(sol.problem.A, i)
    grad_u = gradient(sol.u).components
    source = np.einsum("ab...,b...->a...", dA, grad_u)
    source[i] += sol.problem.f.values
    for b in range(grid.n):
        source[b] += central_difference(sol.problem.F.component(b), i).values
    t2 = float((source * gphi)[:, live].sum()) * hn
    return abs(t1 + t2)


@dataclass
class GrowthFit:
    """Shell regression of a blow-up profile against its growth bound."""

    exponent: float
    violation: bool
    shells: list
    compliant_trivially: bool = False


def growth_fit(
    v: Field,
    alpha: float,
    order: int = 0,
    shell_radii=None,
    fit_radius: float | None = None,
) -> GrowthFit:
    """Least-squares slope of log shell-max against log radius.

    Shells default to a geometric ladder from 4 lattice spacings up to the
    window radius; the fit uses shells inside ``fit_radius`` (default 1, the
    ball where the companion direction lives) while the growth-bound check
    |v| <= |x|^alpha (order 0) or (2/(1+alpha))|x|^{1+alpha} (order 1) is
    flagged on every shell with 10% headroom.
    """
    grid = v.grid
    origin = tuple(grid.m // 2 for _ in range(grid.n))
    if abs(v.values[origin]) > 1e-13:
        raise ValueError("blow-up profile must vanish at the origin")
    if shell_radii is None:
        lo = 4 * grid.h
        shell_radii = np.geomspace(lo, grid.half_width, 9)
    shell_radii = np.asarray(shell_radii)
    if fit_radius is None:
        fit_radius = min(1.0, grid.half_width)
    dist = grid.radius_from(np.zeros(grid.n))
    rows = []
    for lo, hi in zip(shell_radii[:-1], shell_radii[1:]):
        ring = (dist > lo) & (dist <= hi) & v.valid
        if not ring.any():
            continue
        peak = float(np.abs(v.values[ring]).max())
        bound = hi**alpha if order == 0 else 2.0 / (1 + alpha) * hi ** (1 + alpha)
        rows.append({"radius": hi, "peak": peak, "bound": bound})
    if not v.valid.any():
        raise InsufficientShellsError("window holds no valid samples")
    if np.abs(v.values[v.valid]).max() <= 1e-13:
        return GrowthFit(float("nan"), False, rows, compliant_trivially=True)
    if len(rows) < 3:
        raise InsufficientShellsError(f"only {len(rows)} populated shells")
    violation = any(row["peak"] > row["bound"] * GROWTH_VIOLATION_HEADROOM for row in rows)
    fit_rows = [row for row in rows if row["radius"] <= fit_radius * 1.0001 and row["peak"] > 0]
    if len(fit_rows) < 3:
        fit_rows = [row for row in rows if row["peak"] > 0]
    if len(fit_rows) < 3:
        raise InsufficientShellsError("too few nonzero shells for a slope")
    slope = float(
        np.polyfit([math.log(r["radius"]) for r in fit_rows],
                   [math.log(r["peak"]) for r in fit_rows], 1)[0]
    )
    return GrowthFit(slope, violation, rows)


@dataclass
class BlowupStep:
    x: tuple
    y: tuple
    separation: float
    level: float          # seminorm level M over the step's search region
    xi: tuple
    v: Field
    w: Field
    v_seminorm: float
    vw_gap: float
    vw_gap_bound: float
    interp_tol: float
    fit: GrowthFit | None
    degenerate: bool = False


@dataclass
class BlowupRecord:
    order: int
    alpha: float
    steps: list

    @property
    def growth_exponent(self) -> float:
        for step in reversed(self.steps):
            if step.fit is not None and not math.isnan(step.fit.exponent):
                return step.fit.exponent
        return float("nan")


def _local_quotient(values, valid, coords_axis, node_idx, alpha, reach=5):
    """Largest Holder quotient from one node to its near neighbors."""
    nd = values.ndim if values.ndim <= len(node_idx) else values.ndim - 1
    grid_shape = values.shape[-nd:]
    sl = tuple(
        slice(max(0, node_idx[a] - reach), min(grid_shape[a], node_idx[a] + reach + 1))
        for a in range(nd)
    )
    axes = np.meshgrid(*[coords_axis[s] for s in sl], indexing="ij")
    centre = np.array([coords_axis[i] for i in node_idx])
    dist = np.sqrt(sum((ax - c) ** 2 for ax, c in zip(axes, centre)))
    if values.ndim == nd:
        diff = np.abs(values[sl] - values[tuple(node_idx)])
    else:
        block = values[(slice(None),) + sl]
        here = values[(slice(None),) + tuple(node_idx)]
        diff = np.linalg.norm(block - here[(slice(None),) + (None,) * nd], axis=0)
    ok = (dist > 0) & valid[sl]
    if not ok.any():
        return 0.0
    return float((diff[ok] / dist[ok] ** alpha).max())


def _sample_window(field_values, grid: Grid, base, r_sep, window: Grid):
    """Multilinear samples of a grid function at base + r_sep * window nodes."""
    interp = RegularGridInterpolator(
        (grid.axis,) * grid.n, field_values, method="linear",
        bounds_error=False, fill_value=np.nan,
    )
    mesh = window.coords()
    pts = np.stack([base[a] + r_sep * mesh[a] for a in range(grid.n)], axis=-1)
    vals = interp(pts.reshape(-1, grid.n)).reshape(window.shape)
    ok = np.isfinite(vals)
    return np.where(ok, vals, 0.0), ok


def blowup_sequence(u: Field, cfg: SchauderConfig, steps: int | None = None) -> BlowupRecord:
    """Extract a blow-up sequence from one field by repeatedly shrinking the
    pair-search region around the seminorm argmax.

    Order 0 rescales (eta u)(x_k + r_k x) around the Holder argmax pair of
    eta u over the support ball; order 1 works on grad(eta u) over the
    cutoff plateau and subtracts the frozen linear part, so linear fields
    cancel exactly (degenerate records, zero profiles). Ties in the argmax
    resolve to the widest pair; the base endpoint is the one with the larger
    local Holder quotient (the more singular end).
    """
    grid = u.grid
    if steps is None:
        steps = cfg.blowup_steps
    eta = cutoff(grid, cfg.r, cfg.R).eta
    W = eta * u
    if cfg.order == 0:
        scan_values = W.values
        region0 = ball_region(grid, 0.0, cfg.R)
    else:
        # one-node shrink keeps every gradient stencil inside the plateau,
        # so linear fields cancel exactly instead of seeing the ramp
        scan_values = gradient(W).components
        region0 = ball_region(grid, 0.0, cfg.r - grid.h)

    spread = np.abs(u.values[region0.mask])
    if spread.size == 0 or spread.max() - spread.min() <= 1e-14 * max(1.0, spread.max()):
        raise NoBlowupPairError("field is constant on the blow-up region")

    grad_w_sup = float(gradient(W).magnitude().values.max())
    eta_lip = float(gradient(eta).magnitude().values.max())
    u_sup = float(np.abs(u.values).max())

    record = BlowupRecord(order=cfg.order, alpha=cfg.alpha, steps=[])
    centre = np.zeros(grid.n)
    radius = region0.radius
    for _ in range(steps):
        # search scope shrinks around the current base; it may poke past the
        # box, so it is a bare mask intersected with the original region
        mask = (grid.radius_from(centre) < radius) & region0.mask & u.valid
        if mask.sum() < 4:
            break
        level, (ia_idx, ib_idx), _mode = _holder_scan_mask(grid, mask, scan_values, cfg.alpha)
        scale_ref = max(grad_w_sup, u_sup, 1.0)
        degenerate = level <= DEGENERATE_SEMINORM_FLOOR * scale_ref
        if not degenerate:
            # the widest pair within 1e-9 of the level; a degenerate level
            # would tie almost every pair, so ties are enumerated only here
            _, tie_a, tie_b = _holder_pairs(grid, mask, scan_values, cfg.alpha, level * (1 - 1e-9))
            ia_idx, ib_idx = tie_a[0], tie_b[0]
            qa = _local_quotient(scan_values, u.valid, grid.axis, tuple(ia_idx), cfg.alpha)
            qb = _local_quotient(scan_values, u.valid, grid.axis, tuple(ib_idx), cfg.alpha)
            if qb > qa:
                ia_idx, ib_idx = ib_idx, ia_idx
        base, partner = grid.axis[ia_idx], grid.axis[ib_idx]
        r_sep = float(np.linalg.norm(partner - base))
        xi = ((partner - base) / r_sep) if r_sep > 0 else np.zeros(grid.n)
        x, y, xi = (tuple(map(float, p)) for p in (base, partner, xi))

        window_half = cfg.window_radius
        window = make_grid(grid.n, window_half, cfg.window_m)
        if degenerate:
            v = Field.zeros(window)
            w_prof = Field.zeros(window)
            step = BlowupStep(
                x=x, y=y, separation=r_sep, level=0.0, xi=xi, v=v, w=w_prof,
                v_seminorm=0.0, vw_gap=0.0, vw_gap_bound=0.0, interp_tol=0.0,
                fit=GrowthFit(float("nan"), False, [], compliant_trivially=True),
                degenerate=True,
            )
            record.steps.append(step)
            break

        denom = level * r_sep**cfg.alpha if cfg.order == 0 else level * r_sep ** (1 + cfg.alpha)
        base_idx = tuple(ia_idx)
        if cfg.order == 0:
            w_samples, ok = _sample_window(W.values, grid, base, r_sep, window)
            v_vals = (w_samples - W.values[base_idx]) / denom
            u_samples, ok_u = _sample_window(u.values, grid, base, r_sep, window)
            w_vals = eta.values[base_idx] * (u_samples - u.values[base_idx]) / denom
            ok = ok & ok_u
        else:
            u_samples, ok = _sample_window(u.values, grid, base, r_sep, window)
            eta_samples, ok_e = _sample_window(eta.values, grid, base, r_sep, window)
            ok = ok & ok_e
            grad_u_at_base = np.array(
                [central_difference(u, a).values[base_idx] for a in range(grid.n)]
            )
            mesh = window.coords()
            linear = sum(grad_u_at_base[a] * r_sep * mesh[a] for a in range(grid.n))
            eta_at_base = eta.values[base_idx]
            v_vals = (eta_samples * (u_samples - u.values[base_idx]) - eta_at_base * linear) / denom
            w_vals = (eta_at_base * (u_samples - u.values[base_idx]) - eta_at_base * linear) / denom

        v = Field(window, v_vals, ok)
        w_prof = Field(window, w_vals, ok)
        win_region = ball_region(window, 0.0, window.half_width)
        if cfg.order == 0:
            v_semi = holder_seminorm(v, cfg.alpha, win_region).value
        else:
            v_semi = holder_seminorm_vec(gradient(v), cfg.alpha, win_region).value
        vw_gap = float(np.abs(v_vals - w_vals)[ok].max())
        if cfg.order == 0:
            gap_bound = eta_lip * window_half * u_sup / level * r_sep ** (1 - cfg.alpha)
        else:
            gap_bound = eta_lip * window_half**2 * u_sup / level * r_sep ** (-cfg.alpha) * 2.0
        interp_tol = 0.5 * math.sqrt(grid.n) * grid.h * grad_w_sup / denom * r_sep
        try:
            fit = growth_fit(v, cfg.alpha, order=cfg.order)
        except InsufficientShellsError:
            fit = None
        record.steps.append(
            BlowupStep(
                x=x, y=y, separation=r_sep, level=level, xi=xi, v=v, w=w_prof,
                v_seminorm=v_semi, vw_gap=vw_gap, vw_gap_bound=gap_bound,
                interp_tol=interp_tol, fit=fit,
            )
        )
        centre = base
        # forcing the next scope under the current separation realizes a
        # strictly shrinking rescaling ladder
        radius = max(0.5 * r_sep, 8 * grid.h)
        if radius <= 8 * grid.h and len(record.steps) > 1:
            break
    if not record.steps:
        raise NoBlowupPairError("no admissible pair found")
    return record


@dataclass
class ApproximationRecord:
    """Mollify-and-resolve convergence log for one problem."""

    rows: list
    reference_l2: float
    inner_half_width: float
    decreasing: bool
    l2_bound_ok: bool
    ellipticity_ok: bool


def _restrict_values(values: np.ndarray, grid: Grid, j: int) -> np.ndarray:
    c = grid.m // 2
    sl = (slice(c - j, c + j + 1),) * grid.n
    return values[sl]


def restrict_problem_data(problem: EllipticProblem, u_boundary: Field, j: int):
    """Slice problem data to the inner box of j nodes around the center."""
    grid = problem.grid
    inner_hw = j * grid.h
    sub = make_grid(grid.n, inner_hw, 2 * j + 1)
    entries = np.stack(
        [
            np.stack([_restrict_values(problem.A.entries[a, b], grid, j) for b in range(grid.n)])
            for a in range(grid.n)
        ]
    )
    A = CoefficientField(sub, entries)
    f = Field(sub, _restrict_values(problem.f.values, grid, j))
    F = VecField(sub, np.stack([_restrict_values(problem.F.components[a], grid, j) for a in range(grid.n)]))
    g = Field(sub, _restrict_values(u_boundary.values, grid, j))
    return EllipticProblem(A=A, f=f, F=F, g=g, p=problem.p, q=problem.q), sub


def regularize_approximate(problem: EllipticProblem, eps_schedule, r: float | None = None) -> ApproximationRecord:
    """Mollify the data, solve on the inner box with the reference solution as
    boundary data, and track the H^1 distance along the schedule.

    The inner box mirrors the classical 3/4 placement; every mollified
    coefficient inherits the ellipticity envelope (convex averaging), which
    is re-certified and checked per epsilon.
    """
    grid = problem.grid
    eps_schedule = [float(e) for e in eps_schedule]
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("epsilon schedule must be strictly decreasing")
    reference = solve_dirichlet(problem)
    j = int(math.floor(0.75 * grid.half_width / grid.h + 1e-9))
    margin = grid.m // 2 - j
    inner_hw = j * grid.h
    sub = make_grid(grid.n, inner_hw, 2 * j + 1)
    ref_l2 = lp_norm(reference.u, 2, ball_region(grid, 0.0, grid.half_width)).value

    rows = []
    ell_ok = True
    for eps in eps_schedule:
        if int(np.ceil(eps / grid.h)) - 1 > margin:
            raise GridTooCoarseError(
                f"eps = {eps:.4g} kernel exceeds the {margin}-node margin of the inner box"
            )
        # mollified data lives on the eps-interior; restrict to the inner box
        # before re-certifying ellipticity (zeros outside would fail the gate)
        entries = np.stack(
            [
                np.stack(
                    [
                        _restrict_values(
                            mollify(Field(grid, problem.A.entries[a, b]), eps).values, grid, j
                        )
                        for b in range(grid.n)
                    ]
                )
                for a in range(grid.n)
            ]
        )
        sub_problem = EllipticProblem(
            A=CoefficientField(sub, entries),
            f=Field(sub, _restrict_values(mollify(problem.f, eps).values, grid, j)),
            F=VecField(
                sub,
                np.stack(
                    [
                        _restrict_values(mollify(problem.F.component(a), eps).values, grid, j)
                        for a in range(grid.n)
                    ]
                ),
            ),
            g=Field(sub, _restrict_values(reference.u.values, grid, j)),
            p=problem.p,
            q=problem.q,
        )
        ell_ok &= (
            sub_problem.A.lam >= problem.A.lam - 1e-10
            and sub_problem.A.Lam <= problem.A.Lam + 1e-10
            and sub_problem.A.L <= problem.A.L + 1e-10
        )
        approx = solve_dirichlet(sub_problem)
        ref_inner = Field(sub, _restrict_values(reference.u.values, grid, j))
        diff = approx.u - ref_inner
        ball = ball_region(sub, 0.0, inner_hw)
        h1 = hk_norm(diff, 1, ball).value
        l2 = lp_norm(approx.u, 2, ball_region(sub, 0.0, inner_hw)).value
        rows.append(
            {
                "eps": eps, "h1_gap": h1, "l2": l2,
                "lam_eps": sub_problem.A.lam, "L_eps": sub_problem.A.L,
                "iterations": approx.diagnostics.get("iterations", 0),
            }
        )
    gaps = [row["h1_gap"] for row in rows]
    return ApproximationRecord(
        rows=rows,
        reference_l2=ref_l2,
        inner_half_width=inner_hw,
        decreasing=all(b < a for a, b in zip(gaps, gaps[1:])),
        l2_bound_ok=all(row["l2"] <= 2.0 * ref_l2 + 1e-12 for row in rows),
        ellipticity_ok=bool(ell_ok),
    )


@dataclass
class BootstrapReport:
    levels: list                 # per level: list of EstimateReports
    assembled_norm: float        # direct C^{k,alpha} norm of u on the inner ball
    assembly_bound: float        # sup|u| + sum_i ||d_i u||_{C^{k-1,alpha}}
    chained_constant: float

    @property
    def consistent(self) -> bool:
        return self.assembled_norm <= self.assembly_bound * (1 + 1e-10) + 1e-12


def bootstrap_ckalpha(
    problem: EllipticProblem, k: int, alpha: float, r: float, R: float
) -> BootstrapReport:
    """Iterate the order-1 estimate on partial derivatives up to order k.

    Level 1 measures u on (r_1, R); level j+1 measures each derivative field
    with the composed source d_i A grad u + f e_i + d_i F on the next ring.
    The assembled C^{k,alpha} norm is checked against the exact discrete
    bound sup|u| + sum_i ||d_i u||_{C^{k-1,alpha}} (same stencils both sides).
    """
    if k not in (2, 3):
        raise ValueError(f"bootstrap supports k in (2, 3), got {k}")
    grid = problem.grid
    if problem.A.holder_bound is None:
        raise DataRegularityMissingError("bootstrap needs a Holder certificate on A")
    if not _holder_certified(problem, "F"):
        raise DataRegularityMissingError("bootstrap needs a Holder certificate on F")
    radii = np.geomspace(r, R, k + 1)
    if any(b - a < 4 * grid.h for a, b in zip(radii[:-1], radii[1:])):
        raise GridTooCoarseError("radius chain bands fall under 4h")

    sol = solve_dirichlet(problem)
    levels = []

    # level 1: the solution itself on the outermost ring
    cfg = SchauderConfig(order=1, alpha=alpha, p=problem.p, q=problem.q, r=float(radii[-2]), R=float(radii[-1]))
    levels.append([schauder_ratio(sol, cfg)])

    current = [(sol.u, problem.f, problem.F, gradient(sol.u))]
    for level in range(2, k + 1):
        ring_r, ring_R = float(radii[k - level]), float(radii[k - level + 1])
        outer_reg = ball_region(grid, 0.0, ring_R)
        inner_reg = ball_region(grid, 0.0, ring_r)
        reports = []
        next_fields = []
        for (u_field, f_field, F_field, grad_field) in current:
            for i in range(grid.n):
                u_i = central_difference(u_field, i)
                dA_grad = np.einsum(
                    "ab...,b...->a...", _entry_derivative(problem.A, i), grad_field.components
                )
                source = dA_grad.copy()
                source[i] += f_field.values
                for b in range(grid.n):
                    source[b] += central_difference(F_field.component(b), i).values
                src_valid = grad_field.valid & central_difference(F_field.component(0), i).valid
                G = VecField(grid, np.where(src_valid[None], source, 0.0), src_valid)
                lhs = ck_alpha_norm(u_i, 1, alpha, inner_reg).value
                comps = {
                    "u_l2": lp_norm(u_i, 2, outer_reg).value,
                    "G_c0a": _holder_norm_vec(G, alpha, outer_reg),
                }
                reports.append(
                    EstimateReport(
                        f"bootstrap_level{level}_axis{i}", lhs, comps,
                        (ring_r, ring_R), grid.m, problem.fingerprint(),
                        extra={"alpha": alpha},
                    )
                )
                next_fields.append((u_i, Field.zeros(grid), G, gradient(u_i)))
        levels.append(reports)
        current = next_fields

    inner = ball_region(grid, 0.0, float(radii[0]))
    assembled = ck_alpha_norm(sol.u, k, alpha, inner).value
    bound = lp_norm(sol.u, np.inf, inner).value
    if k == 2:
        for i in range(grid.n):
            bound += ck_alpha_norm(central_difference(sol.u, i), 1, alpha, inner).value
    else:
        for i in range(grid.n):
            u_i = central_difference(sol.u, i)
            bound += lp_norm(u_i, np.inf, inner).value
            for j2 in range(grid.n):
                bound += ck_alpha_norm(central_difference(u_i, j2), 1, alpha, inner).value
    rhs0 = (
        lp_norm(sol.u, 2, ball_region(grid, 0.0, R)).value
        + ck_alpha_norm(problem.f, max(k - 2, 0), alpha, ball_region(grid, 0.0, R)).value
        + _holder_norm_vec(problem.F, alpha, ball_region(grid, 0.0, R))
    )
    chained = assembled / max(rhs0, 1e-300)
    return BootstrapReport(
        levels=levels, assembled_norm=assembled, assembly_bound=bound, chained_constant=chained
    )


@dataclass
class RescalePair:
    """Covariant transform of both sides of the order-0 estimate under
    x -> x0 + t x; reported as factors, not a single constant."""

    t: float
    lhs_factors: dict
    rhs_factors: dict


def rescale_estimate(C_unit: float, t: float, kind: str):
    """Transport a unit-ball estimate constant to a ball of radius t.

    kind "h2": the constant becomes C / t^2. kind "c0alpha": both sides
    transform covariantly; the factor pair is returned instead of a number.
    """
    if not 0 < t <= 1:
        raise ValueError(f"scale t must lie in (0, 1], got {t}")
    if kind == "h2":
        return C_unit / t**2
    if kind == "c0alpha":
        return RescalePair(
            t=t,
            lhs_factors={"sup": 1.0, "seminorm_alpha": "t^alpha"},
            rhs_factors={"u_l2": "t^(-n/2)", "f_lp": "t^(2 - n/p)", "F_lq": "t^(1 - n/q)"},
        )
    raise ValueError(f"unknown estimate kind {kind!r}")


def rescale_problem(
    problem: EllipticProblem, x0, t: float, reference: Field, m: int | None = None
) -> EllipticProblem:
    """Zoomed problem v(x) = u(x0 + t x) on a unit-half-width grid: data
    A(x0+tx), t^2 f(x0+tx), t F(x0+tx), boundary data from the reference.

    Choosing m = 2j+1 with t = j h makes the zoom lattice land on original
    nodes, so sampling is exact and the zoomed discrete system reproduces
    the direct subgrid solve to solver tolerance.
    """
    grid = problem.grid
    x0 = np.asarray(x0, dtype=float)
    if np.abs(x0).max() + t > grid.half_width + 1e-12:
        raise ValueError("zoom target leaves the box")
    sub = make_grid(grid.n, 1.0, grid.m if m is None else m)

    def zoom(values: np.ndarray) -> np.ndarray:
        interp = RegularGridInterpolator((grid.axis,) * grid.n, values, method="linear")
        mesh = sub.coords()
        pts = np.stack([x0[a] + t * mesh[a] for a in range(grid.n)], axis=-1)
        return interp(pts.reshape(-1, grid.n)).reshape(sub.shape)

    entries = np.stack(
        [np.stack([zoom(problem.A.entries[a, b]) for b in range(grid.n)]) for a in range(grid.n)]
    )
    return EllipticProblem(
        A=CoefficientField(sub, entries),
        f=Field(sub, t**2 * zoom(problem.f.values)),
        F=VecField(sub, np.stack([t * zoom(problem.F.components[a]) for a in range(grid.n)])),
        g=Field(sub, zoom(reference.values)),
        p=problem.p,
        q=problem.q,
    )
