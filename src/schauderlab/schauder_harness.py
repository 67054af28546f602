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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .caccioppoli import EstimateReport, rhs_terms
from .domain_grid import MIN_BAND_NODES, Grid, ball_region, check_radii, cutoff, make_grid
from .elliptic_solver import (
    CERTIFICATE_DEGREES,
    CoefficientField,
    DiscreteSolution,
    EllipticProblem,
    require_admissible,
    solve_dirichlet,
)
from .errors import (
    DataRegularityMissingError,
    GridTooCoarseError,
    InadmissibleExponentsError,
    InsufficientShellsError,
    NoBlowupPairError,
)
from .field_calculus import (
    Field,
    VecField,
    central_difference,
    gradient,
    mollifier_weights,
    mollify,
)
from .norm_engine import (
    _holder_scan_mask,
    ck_alpha_norm,
    hk_norm,
    holder_seminorm,
    holder_seminorm_vec,
    log_slope,
    lp_norm,
    shell_peaks,
)

# Relative headroom when flagging growth-bound violations on shells.
GROWTH_VIOLATION_HEADROOM = 1.10

# Seminorm level below which a blow-up collapses to exact cancellation.
DEGENERATE_SEMINORM_FLOOR = 1e-12

# Shells of the pointwise-exponent regression.
POINTWISE_SHELLS = 6

# Growth-fit ladder: 9 geometric shell edges from 4 lattice spacings to the
# window radius; the slope uses the shells inside the unit ball.
GROWTH_SHELL_EDGES = 9
GROWTH_INNER_SPACINGS = 4
GROWTH_FIT_RADIUS = 1.0

# Blow-up: node reach of the local quotient that orients a pair, and the
# half-width and node count of the rescaled profile window.
LOCAL_QUOTIENT_REACH = 5
BLOWUP_WINDOW_RADIUS = 2.0
BLOWUP_WINDOW_M = 65


def admissible_alpha(n: int, p: float, q: float | None = None, order: int = 0) -> float:
    """Largest admissible Holder exponent for the interior estimates.

    order 0: alpha <= min(2 - n/p, 1 - n/q), needing p > n/2 and q > n;
    order 1: alpha <= 1 - n/p, needing p > n. The formula value can reach
    or exceed 1, where the open constraint alpha < 1 binds instead.
    """
    if order == 0:
        if q is None:
            raise InadmissibleExponentsError("order 0 needs both p and q")
        require_admissible(n, p, q)
        return min(2.0 - n / p, 1.0 - n / q)
    if order == 1:
        if not p > n:
            raise InadmissibleExponentsError(f"need p > n = {n}, got {p}", failing_term="p")
        return 1.0 - n / p
    raise ValueError(f"order must be 0 or 1, got {order}")


@dataclass
class SchauderConfig:
    """Estimate order, Holder exponent, data exponents and radii."""

    order: int
    alpha: float
    p: float
    r: float
    R: float
    q: float | None = None

    def __post_init__(self):
        if self.order not in (0, 1):
            raise ValueError("order must be 0 or 1")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        check_radii(self.r, self.R)

    def check_admissible(self, n: int) -> None:
        """Admissibility depends on the dimension, so it is gated at use."""
        threshold = admissible_alpha(n, self.p, self.q, self.order)
        if not self.alpha <= threshold:
            raise InadmissibleExponentsError(
                f"alpha = {self.alpha} exceeds threshold {threshold:.4g} "
                f"for order {self.order}, p = {self.p}, q = {self.q}"
            )


def _holder_norm_vec(F: VecField, alpha: float, region) -> float:
    """max over components of sup + seminorm (vector C^{0,alpha} norm)."""
    return max(ck_alpha_norm(F.component(j), 0, alpha, region) for j in range(F.grid.n))


def _holder_certified(problem: EllipticProblem, name: str) -> bool:
    """A field is Holder-certified via a Lipschitz + sup pair
    (interpolation: [g]_alpha <= Lip^alpha (2 sup)^(1-alpha))."""
    return f"{name}_lipschitz" in problem.certificates and f"{name}_sup" in problem.certificates


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
    lhs = ck_alpha_norm(sol.u, cfg.order, cfg.alpha, inner)
    comps = rhs_terms(sol, cfg.p, cfg.q if cfg.order == 0 else None, outer)
    if cfg.order == 1:
        comps["F_c0a"] = _holder_norm_vec(sol.problem.F, cfg.alpha, outer)
    return EstimateReport(
        f"schauder_c{cfg.order}alpha", lhs, comps, (cfg.r, cfg.R), grid.m,
        sol.problem.fingerprint(),
        extra={"alpha": cfg.alpha, "p": cfg.p, "q": cfg.q, "order": cfg.order},
    )


def measure_pointwise_exponent(u: Field, point, r_min: float, r_max: float) -> float:
    """Holder exponent of u at a point by shell regression on grid nodes.

    Fits the slope of log max_{shell} |u(x) - u(point)| against log radius
    over a geometric annulus ladder; no interpolation is involved. u(point)
    is u at the nearest node, which must be valid.
    """
    grid = u.grid
    point = np.asarray(point, dtype=float)
    dist = grid.radius_from(point)
    idx = tuple(int(np.argmin(np.abs(grid.axis - c))) for c in point)
    if not u.valid[idx]:
        raise ValueError(f"u is invalid at the node nearest the point {tuple(point.tolist())}")
    radii = np.geomspace(r_min, r_max, POINTWISE_SHELLS + 1)
    peaks = shell_peaks(u.values - u.values[idx], u.valid, dist, radii)
    peaks = [(hi, peak) for hi, peak in peaks if peak > 0]
    if len(peaks) < 3:
        raise InsufficientShellsError(f"only {len(peaks)} populated shells in [{r_min}, {r_max}]")
    slope, _ = log_slope(*zip(*peaks))
    return slope


def _differentiated_source(A: CoefficientField, i: int, grad_u: np.ndarray, f: Field, F: VecField):
    """Source d_i A grad u + f e_i + d_i F of the equation for d_i u (central
    differences), and the nodes where d_i F is valid; the components of F
    share one mask."""
    n = A.grid.n
    dA = np.zeros_like(A.entries)
    for a, b in itertools.product(range(n), repeat=2):
        dA[a, b] = central_difference(Field(A.grid, A.entries[a, b]), i).values
    source = np.einsum("ab...,b...->a...", dA, grad_u)
    source[i] += f.values
    for b in range(n):
        dF = central_difference(F.component(b), i)
        source[b] += dF.values
    return source, dF.valid


@dataclass
class GrowthFit:
    """Shell regression of a blow-up profile against its growth bound."""

    exponent: float
    violation: bool
    compliant_trivially: bool = False


def growth_fit(v: Field, alpha: float, order: int = 0) -> GrowthFit:
    """Least-squares slope of log shell-max against log radius.

    Shells form a geometric ladder from 4 lattice spacings up to the window
    radius; the fit uses the nonzero shells inside the unit ball (where the
    companion direction lives), and fewer than three of them raise, while
    the growth-bound check
    |v| <= |x|^alpha (order 0) or (2/(1+alpha))|x|^{1+alpha} (order 1) is
    flagged on every shell with 10% headroom.
    """
    grid = v.grid
    origin = tuple(grid.m // 2 for _ in range(grid.n))
    if abs(v.values[origin]) > 1e-13:
        raise ValueError("blow-up profile must vanish at the origin")
    shell_radii = np.geomspace(GROWTH_INNER_SPACINGS * grid.h, grid.half_width, GROWTH_SHELL_EDGES)
    fit_radius = min(GROWTH_FIT_RADIUS, grid.half_width)
    dist = grid.radius_from(np.zeros(grid.n))
    rows = [
        {"radius": hi, "peak": peak,
         "bound": hi**alpha if order == 0 else 2.0 / (1 + alpha) * hi ** (1 + alpha)}
        for hi, peak in shell_peaks(v.values, v.valid, dist, shell_radii)
    ]
    if not v.valid.any():
        raise InsufficientShellsError("window holds no valid samples")
    if np.abs(v.values[v.valid]).max() <= 1e-13:
        return GrowthFit(float("nan"), False, compliant_trivially=True)
    if len(rows) < 3:
        raise InsufficientShellsError(f"only {len(rows)} populated shells")
    violation = any(row["peak"] > row["bound"] * GROWTH_VIOLATION_HEADROOM for row in rows)
    fit_rows = [row for row in rows if row["radius"] <= fit_radius * 1.0001 and row["peak"] > 0]
    if len(fit_rows) < 3:
        raise InsufficientShellsError(f"only {len(fit_rows)} nonzero shells within radius {fit_radius} for a slope")
    slope, _ = log_slope([r["radius"] for r in fit_rows], [r["peak"] for r in fit_rows])
    return GrowthFit(slope, violation)


@dataclass
class BlowupStep:
    x: tuple
    y: tuple
    separation: float
    level: float          # seminorm level M over the step's search region
    xi: tuple
    v: Field
    v_seminorm: float
    vw_gap: float
    vw_gap_bound: float
    interp_tol: float
    fit: GrowthFit | None
    degenerate: bool = False


@dataclass
class BlowupRecord:
    steps: list

    @property
    def growth_exponent(self) -> float:
        for step in reversed(self.steps):
            if step.fit is not None and not math.isnan(step.fit.exponent):
                return step.fit.exponent
        return float("nan")


def _local_quotient(values, valid, coords_axis, node_idx, alpha):
    """Largest Holder quotient from one node to its near neighbors."""
    reach = LOCAL_QUOTIENT_REACH
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


def _multilinear(values: np.ndarray, axis: np.ndarray, pts) -> np.ndarray:
    """Multilinear interpolation of nodal values at points given as one
    coordinate array per axis; NaN at points outside the box.

    The arithmetic (cell search, corner order, weight and sum association)
    is that of scipy's ``RegularGridInterpolator(method="linear")`` on
    read-only values, so samples agree with it bit for bit.
    """
    m = axis.size
    cells, weights = [], []
    for x in pts:
        i = np.clip(np.searchsorted(axis, x, "right") - 1, 0, m - 2)
        y = (x - axis[i]) / (axis[i + 1] - axis[i])
        cells.append(i)
        weights.append((1 - y, y))
    out = 0.0
    for corner in itertools.product((0, 1), repeat=len(pts)):
        weight = 1.0
        for c, w in zip(corner, weights):
            weight = weight * w[c]
        out = out + values[tuple(i + c for i, c in zip(cells, corner))] * weight
    inside = np.logical_and.reduce([(x >= axis[0]) & (x <= axis[-1]) for x in pts])
    return np.where(inside, out, np.nan)


def _sample_window(field_values, grid: Grid, base, r_sep, window: Grid):
    """Multilinear samples of a grid function at base + r_sep * window nodes."""
    mesh = window.coords()
    pts = [base[a] + r_sep * mesh[a] for a in range(grid.n)]
    vals = _multilinear(field_values, grid.axis, pts)
    ok = np.isfinite(vals)
    return np.where(ok, vals, 0.0), ok


def blowup_sequence(u: Field, cfg: SchauderConfig, steps: int) -> BlowupRecord:
    """Extract a blow-up sequence from one field by repeatedly shrinking the
    pair-search region around the seminorm argmax, for at most ``steps`` steps.

    Order 0 rescales (eta u)(x_k + r_k x) around the Holder argmax pair of
    eta u over the support ball; order 1 works on grad(eta u) over the
    cutoff plateau and subtracts the frozen linear part, so linear fields
    cancel exactly (degenerate records, zero profiles). Ties in the argmax
    resolve to the widest pair; the base endpoint is the one with the larger
    local Holder quotient (the more singular end).
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    grid = u.grid
    eta = cutoff(grid, cfg.r, cfg.R)
    W = eta * u
    grad_w = gradient(W)
    # the scan reads the scanned field where that field is valid: the
    # gradient of a field with invalid nodes is invalid one node further
    if cfg.order == 0:
        scan_values, scan_valid = W.values, W.valid
        region0 = ball_region(grid, 0.0, cfg.R)
    else:
        # one-node shrink keeps every gradient stencil inside the plateau,
        # so linear fields cancel exactly instead of seeing the ramp
        scan_values, scan_valid = grad_w.components, grad_w.valid
        region0 = ball_region(grid, 0.0, cfg.r - grid.h)

    # the signed range over the valid nodes, so that a field of one
    # magnitude and both signs (a +-1 step) is not taken for a constant
    vals = u.values[region0.mask & u.valid]
    if vals.size == 0 or np.ptp(vals) <= 1e-14 * max(1.0, float(np.abs(vals).max())):
        raise NoBlowupPairError("field is constant on the blow-up region")

    grad_w_sup = float(grad_w.magnitude().values.max())
    eta_lip = float(gradient(eta).magnitude().values.max())
    u_sup = float(np.abs(u.values).max())

    record = BlowupRecord(steps=[])
    centre = np.zeros(grid.n)
    radius = region0.radius
    for _ in range(steps):
        # search scope shrinks around the current base; it may poke past the
        # box, so it is a bare mask intersected with the original region
        mask = (grid.radius_from(centre) < radius) & region0.mask & scan_valid
        if mask.sum() < 4:
            break
        level, (top_pair, wide_pair), _ = _holder_scan_mask(grid, mask, scan_values, cfg.alpha)
        scale_ref = max(grad_w_sup, u_sup, 1.0)
        degenerate = level <= DEGENERATE_SEMINORM_FLOOR * scale_ref
        # the widest pair within TIE_RTOL of the level; a degenerate level
        # ties almost every pair, so it keeps the first maximizer in argwhere order
        ia_idx, ib_idx = top_pair if degenerate else wide_pair
        if not degenerate:
            qa = _local_quotient(scan_values, scan_valid, grid.axis, tuple(ia_idx), cfg.alpha)
            qb = _local_quotient(scan_values, scan_valid, grid.axis, tuple(ib_idx), cfg.alpha)
            if qb > qa:
                ia_idx, ib_idx = ib_idx, ia_idx
        base, partner = grid.axis[ia_idx], grid.axis[ib_idx]
        r_sep = float(np.linalg.norm(partner - base))
        xi = ((partner - base) / r_sep) if r_sep > 0 else np.zeros(grid.n)
        x, y, xi = (tuple(map(float, p)) for p in (base, partner, xi))

        window = make_grid(grid.n, BLOWUP_WINDOW_RADIUS, BLOWUP_WINDOW_M)
        if degenerate:
            zero = Field.zeros(window)
            step = BlowupStep(
                x=x, y=y, separation=r_sep, level=0.0, xi=xi, v=zero,
                v_seminorm=0.0, vw_gap=0.0, vw_gap_bound=0.0, interp_tol=0.0,
                fit=GrowthFit(float("nan"), False, compliant_trivially=True),
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
        win_region = ball_region(window, 0.0, window.half_width)
        vw_gap = float(np.abs(v_vals - w_vals)[ok].max())
        if cfg.order == 0:
            v_semi = holder_seminorm(v, cfg.alpha, win_region).value
            gap_bound = eta_lip * BLOWUP_WINDOW_RADIUS * u_sup / level * r_sep ** (1 - cfg.alpha)
        else:
            v_semi = holder_seminorm_vec(gradient(v), cfg.alpha, win_region).value
            gap_bound = eta_lip * BLOWUP_WINDOW_RADIUS**2 * u_sup / level * r_sep ** (-cfg.alpha) * 2.0
        interp_tol = 0.5 * math.sqrt(grid.n) * grid.h * grad_w_sup / denom * r_sep
        try:
            fit = growth_fit(v, cfg.alpha, order=cfg.order)
        except InsufficientShellsError:
            fit = None
        record.steps.append(
            BlowupStep(
                x=x, y=y, separation=r_sep, level=level, xi=xi, v=v,
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
    decreasing: bool
    l2_bound_ok: bool
    ellipticity_ok: bool


def _inner_grid(grid: Grid, j: int) -> tuple:
    """The grid of the inner box of j nodes on each side of the centre, and
    the index of that box in the arrays of ``grid``."""
    c = grid.m // 2
    return make_grid(grid.n, j * grid.h, 2 * j + 1), (slice(c - j, c + j + 1),) * grid.n


def _problem_on(sub: Grid, problem: EllipticProblem, sample, g: Field, t: float = 1.0) -> EllipticProblem:
    """The problem's data carried to the grid ``sub``: ``sample(Field) ->
    ndarray`` applied to every entry of A, to f and to each component of F,
    with f scaled by t^2 and F by t as under the zoom x -> x0 + t x; g is
    taken as given. The data are copies, never views of the parent's. The
    certificates scale with the zoom: A's Lipschitz bound by t, its
    C^{0,alpha} bound by t^alpha, the data's by t^CERTIFICATE_DEGREES[key];
    sampling or averaging the parent's nodes (t = 1) raises no bound."""
    grid, n, A = problem.grid, problem.grid.n, problem.A
    entries = np.stack(
        [np.stack([sample(Field(grid, A.entries[a, b])) for b in range(n)]) for a in range(n)]
    )
    lipschitz = None if A.lipschitz_bound is None else t * A.lipschitz_bound
    holder = None if A.holder is None else (A.holder[0], t ** A.holder[0] * A.holder[1])
    return EllipticProblem(
        A=CoefficientField(sub, entries, lipschitz=lipschitz, holder=holder),
        f=Field(sub, t**2 * sample(problem.f)),
        F=VecField(sub, np.stack([t * sample(problem.F.component(a)) for a in range(n)])),
        g=g,
        p=problem.p,
        q=problem.q,
        certificates={key: t ** CERTIFICATE_DEGREES[key] * bound for key, bound in problem.certificates.items()},
    )


def restrict_problem_data(problem: EllipticProblem, u_boundary: Field, j: int):
    """Slice problem data to the inner box of j nodes around the center."""
    sub, box = _inner_grid(problem.grid, j)
    return _problem_on(sub, problem, lambda fld: fld.values[box], Field(sub, u_boundary.values[box])), sub


def inner_box(grid: Grid) -> tuple:
    """(j, margin) of the inner box regularize_approximate solves on: it
    spans j nodes on each side of the centre, j h at most 3/4 of the
    half-width (the classical placement), and leaves margin = m // 2 - j
    nodes to the boundary, which a kernel's node radius must not exceed."""
    j = int(math.floor(0.75 * grid.half_width / grid.h + 1e-9))
    return j, grid.m // 2 - j


def check_eps_schedule(grid: Grid, eps_schedule) -> list:
    """The schedule as floats once regularize_approximate can run it: it
    must hold at least two radii and be strictly decreasing (ValueError),
    every eps at least 2h (KernelUnderResolvedError) and every kernel inside
    the inner box's margin (GridTooCoarseError). No solve is made."""
    eps_schedule = [float(e) for e in eps_schedule]
    if len(eps_schedule) < 2:
        raise ValueError(f"epsilon schedule needs at least two radii, got {len(eps_schedule)}")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("epsilon schedule must be strictly decreasing")
    _, margin = inner_box(grid)
    for eps in eps_schedule:
        if len(mollifier_weights(grid, eps)) // 2 > margin:
            raise GridTooCoarseError(
                f"eps = {eps:.4g} kernel exceeds the {margin}-node margin of the inner box"
            )
    return eps_schedule


def regularize_approximate(problem: EllipticProblem, eps_schedule) -> ApproximationRecord:
    """Mollify the data, solve on the inner box with the reference solution as
    boundary data, and track the H^1 distance along the schedule, which
    check_eps_schedule vets before any solve.

    Every mollified coefficient inherits the ellipticity envelope (convex
    averaging), which is re-certified and checked per epsilon.
    """
    grid = problem.grid
    eps_schedule = check_eps_schedule(grid, eps_schedule)
    reference = solve_dirichlet(problem)
    sub, box = _inner_grid(grid, inner_box(grid)[0])
    ref_l2 = lp_norm(reference.u, 2, ball_region(grid, 0.0, grid.half_width))
    ref_inner = Field(sub, reference.u.values[box])
    ball = ball_region(sub, 0.0, sub.half_width)

    rows = []
    ell_ok = True
    for eps in eps_schedule:
        # mollified data lives on the eps-interior; restrict to the inner box
        # before re-certifying ellipticity (zeros outside would fail the gate)
        sub_problem = _problem_on(sub, problem, lambda fld: mollify(fld, eps).values[box], ref_inner)
        ell_ok &= (
            sub_problem.A.lam >= problem.A.lam - 1e-10
            and sub_problem.A.Lam <= problem.A.Lam + 1e-10
            and sub_problem.A.L <= problem.A.L + 1e-10
        )
        approx = solve_dirichlet(sub_problem)
        diff = approx.u - ref_inner
        h1 = hk_norm(diff, 1, ball)
        l2 = lp_norm(approx.u, 2, ball)
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
    # a Lipschitz A is C^{0,alpha} for every alpha: [a]_alpha <= Lip^alpha (2L)^(1-alpha)
    A = problem.A
    if A.lipschitz_bound is None and (A.holder is None or A.holder[0] < alpha):
        raise DataRegularityMissingError(f"bootstrap needs A Lipschitz or certified C^{{0,{alpha}}}")
    if not _holder_certified(problem, "F"):
        raise DataRegularityMissingError("bootstrap needs a Holder certificate on F")
    radii = np.geomspace(r, R, k + 1)
    if any(b - a < MIN_BAND_NODES * grid.h for a, b in zip(radii[:-1], radii[1:])):
        raise GridTooCoarseError(f"radius chain bands fall under {MIN_BAND_NODES}h")

    sol = solve_dirichlet(problem)
    levels = []

    # level 1: the solution itself on the outermost ring
    cfg = SchauderConfig(order=1, alpha=alpha, p=problem.p, q=problem.q, r=float(radii[-2]), R=float(radii[-1]))
    levels.append([schauder_ratio(sol, cfg)])

    current = [(sol.u, problem.f, problem.F)]
    for level in range(2, k + 1):
        ring_r, ring_R = float(radii[k - level]), float(radii[k - level + 1])
        outer_reg = ball_region(grid, 0.0, ring_R)
        inner_reg = ball_region(grid, 0.0, ring_r)
        reports = []
        next_fields = []
        for u_field, f_field, F_field in current:
            grad_field = gradient(u_field)
            for i in range(grid.n):
                u_i = central_difference(u_field, i)
                source, dF_valid = _differentiated_source(
                    problem.A, i, grad_field.components, f_field, F_field
                )
                src_valid = grad_field.valid & dF_valid
                G = VecField(grid, np.where(src_valid[None], source, 0.0), src_valid)
                lhs = ck_alpha_norm(u_i, 1, alpha, inner_reg)
                comps = {
                    "u_l2": lp_norm(u_i, 2, outer_reg),
                    "G_c0a": _holder_norm_vec(G, alpha, outer_reg),
                }
                reports.append(
                    EstimateReport(
                        f"bootstrap_level{level}_axis{i}", lhs, comps,
                        (ring_r, ring_R), grid.m, problem.fingerprint(),
                        extra={"alpha": alpha},
                    )
                )
                next_fields.append((u_i, Field.zeros(grid), G))
        levels.append(reports)
        current = next_fields

    inner = ball_region(grid, 0.0, float(radii[0]))
    assembled = ck_alpha_norm(sol.u, k, alpha, inner)
    bound = sum(_assembly_terms(sol.u, k, alpha, inner))
    outer = ball_region(grid, 0.0, R)
    rhs0 = (
        lp_norm(sol.u, 2, outer)
        + ck_alpha_norm(problem.f, max(k - 2, 0), alpha, outer)
        + _holder_norm_vec(problem.F, alpha, outer)
    )
    chained = assembled / max(rhs0, 1e-300)
    return BootstrapReport(
        levels=levels, assembled_norm=assembled, assembly_bound=bound, chained_constant=chained
    )


def _assembly_terms(u: Field, k: int, alpha: float, region):
    """The terms of sup|u| + sum_i ||d_i u||_{C^{k-1,alpha}} in order, each
    C^{k-1,alpha} norm expanded alike down to the C^{1,alpha} norm at k = 1."""
    if k == 1:
        yield ck_alpha_norm(u, 1, alpha, region)
        return
    yield lp_norm(u, np.inf, region)
    for i in range(u.grid.n):
        yield from _assembly_terms(central_difference(u, i), k - 1, alpha, region)


def rescale_estimate(C_unit: float, t: float) -> float:
    """Transport a unit-ball H^2 estimate constant to a ball of radius t:
    C / t^2."""
    if not 0 < t <= 1:
        raise ValueError(f"scale t must lie in (0, 1], got {t}")
    return C_unit / t**2


def rescale_problem(
    problem: EllipticProblem, x0, t: float, reference: Field, m: int | None = None
) -> EllipticProblem:
    """Zoomed problem v(x) = u(x0 + t x) on a unit-half-width grid: data
    A(x0+tx), t^2 f(x0+tx), t F(x0+tx), boundary data from the reference,
    and the certificates scaled to match (``_problem_on``).

    Choosing m = 2j+1 with t = j h makes the zoom lattice land on original
    nodes, so sampling is exact and the zoomed discrete system reproduces
    the direct subgrid solve to solver tolerance.
    """
    if not t > 0:
        raise ValueError(f"scale t must be positive, got {t}")
    grid = problem.grid
    if np.ndim(x0) == 0:
        x0 = (float(x0),) * grid.n
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (grid.n,):
        raise ValueError(f"zoom target must have {grid.n} components, got shape {x0.shape}")
    if np.abs(x0).max() + t > grid.half_width + 1e-12:
        raise ValueError("zoom target leaves the box")
    sub = make_grid(grid.n, 1.0, grid.m if m is None else m)

    def zoom(fld: Field) -> np.ndarray:
        out, ok = _sample_window(fld.values, grid, x0, t, sub)
        if not ok.all():
            raise ValueError("zoom sample points leave the box")
        return out

    return _problem_on(sub, problem, zoom, Field(sub, zoom(reference)), t)
