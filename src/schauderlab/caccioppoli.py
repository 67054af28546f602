"""Executable Caccioppoli inequalities with empirical constant extraction.

Each check evaluates both sides of an interior energy inequality on concrete
radii and reports the realized ratio lhs / (sum of right-hand parts). The
inequalities carry existential constants, so single ratios are observations;
what the laboratory asserts is finiteness, homogeneity and stability of the
maximal ratio over ensembles with a common ellipticity certificate.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field as dfield

import numpy as np

from .domain_grid import ball_region, check_radii, cutoff
from .errors import IncompatibleEnsembleError
from .field_calculus import gradient
from .norm_engine import lp_norm

RATIO_FLOOR = 1e-300


@dataclass
class EstimateReport:
    """One verified inequality instance: lhs, labeled rhs parts, ratio.

    ``ratio`` is lhs / rhs_total (0 when lhs is 0), set at construction."""

    inequality: str
    lhs: float
    rhs_components: dict
    radii: tuple
    resolution: int
    fingerprint: str
    ratio: float = dfield(init=False)
    extra: dict = dfield(default_factory=dict)

    def __post_init__(self):
        self.ratio = 0.0 if self.lhs == 0.0 else self.lhs / max(self.rhs_total, RATIO_FLOOR)

    @property
    def rhs_total(self) -> float:
        return float(sum(self.rhs_components.values()))

    def to_row(self) -> dict:
        row = {
            "inequality": self.inequality,
            "lhs": self.lhs,
            "rhs_total": self.rhs_total,
            "ratio": self.ratio,
            "r": self.radii[0],
            "R": self.radii[1],
            "m": self.resolution,
            "fingerprint": self.fingerprint,
        }
        for name, value in self.rhs_components.items():
            row[f"rhs_{name}"] = value
        return row

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def rhs_terms(sol, p: float, q: float | None, region) -> dict:
    """{u_l2: ||u||_2, f_lp: ||f||_p, F_lq: ||F||_q} of a solution and its
    data on ``region``, in this order: the right-hand side that the interior
    estimates of De Giorgi and Schauder (order 0) share, summed by them left
    to right. q = None leaves out F_lq."""
    terms = {"u_l2": lp_norm(sol.u, 2, region).value, "f_lp": lp_norm(sol.problem.f, p, region).value}
    if q is not None:
        terms["F_lq"] = lp_norm(sol.problem.F.magnitude(), q, region).value
    return terms


def caccioppoli_check(sol, r: float, R: float) -> EstimateReport:
    """||grad u||_{L2(B_r)} vs (R-r)^-1 ||u||_{L2(B_R)} + ||f||_2 + ||F||_2."""
    # the radii the cutoff of the inequality's proof needs
    check_radii(r, R, sol.grid)
    grid = sol.grid
    inner, outer = ball_region(grid, 0.0, r), ball_region(grid, 0.0, R)
    lhs = lp_norm(gradient(sol.u).magnitude(), 2, inner).value
    comps = {
        "u_over_band": lp_norm(sol.u, 2, outer).value / (R - r),
        "f": lp_norm(sol.problem.f, 2, outer).value,
        "F": lp_norm(sol.problem.F.magnitude(), 2, outer).value,
    }
    return EstimateReport(
        "caccioppoli", lhs, comps, (r, R), grid.m, sol.problem.fingerprint()
    )


def truncated_caccioppoli(sol, b: float, sign: str, r: float, rho: float) -> EstimateReport:
    """Caccioppoli inequality for the truncation (u-b)_+ (or (u-b)_-).

    lhs  = sum over {v>0} of |grad_h(eta v)|^2 h^n  (gradient of the product
           field, matching what the energy actually sums);
    rhs  = sum v^2 |grad eta|^2, sum |f| eta^2 v, sum over {v>0} of |F|^2,
           all h^n-weighted. Level sets are strict nodal masks. The forcing
           part uses |f| so every reported component is nonnegative; it
           dominates the signed integral, so any constant verifying the
           signed inequality verifies this one.
    """
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign}")
    grid = sol.grid
    eta = cutoff(grid, r, rho)
    u = sol.u
    v = u.clip_positive_part(b) if sign == "plus" else u.clip_negative_part(b)
    pos = v.values > 0.0
    hn = grid.h**grid.n
    grad_eta_v = gradient(eta * v)
    grad_sq = (grad_eta_v.components**2).sum(axis=0)
    lhs = float(grad_sq[pos].sum() * hn)
    grad_eta_sq = (gradient(eta).components**2).sum(axis=0)
    comps = {
        "v_grad_eta": float((v.values**2 * grad_eta_sq).sum() * hn),
        "forcing": float((np.abs(sol.problem.f.values) * eta.values**2 * v.values).sum() * hn),
        "field_sq": float(((sol.problem.F.components**2).sum(axis=0))[pos].sum() * hn),
    }
    return EstimateReport(
        "truncated_caccioppoli",
        lhs,
        comps,
        (r, rho),
        grid.m,
        sol.problem.fingerprint(),
        extra={"level": b, "sign": sign, "level_set_nodes": int(pos.sum())},
    )


def empirical_constant(members):
    """Max realized ratio across an ensemble, from each member's
    (caccioppoli_check report, (lam, Lam, L) of its coefficient).

    The members must share resolution and radii. Returns (constant,
    reports); each report gets its instance number, the ensemble size and
    the common certificate (least lam, largest Lam and L) under which the
    constant was measured.
    """
    members = list(members)
    if not members:
        raise ValueError("ensemble must be nonempty")
    first = members[0][0]
    if any((rep.resolution, rep.radii) != (first.resolution, first.radii) for rep, _ in members):
        raise IncompatibleEnsembleError("ensemble members differ in resolution or radii")
    certs = np.array([cert for _, cert in members])
    lam, Lam, L = certs[:, 0].min(), certs[:, 1].max(), certs[:, 2].max()
    reports = [rep for rep, _ in members]
    for k, rep in enumerate(reports):
        rep.extra.update({"instance": k, "lam": lam, "Lam": Lam, "L": L, "size": len(reports)})
    constant = max(rep.ratio for rep in reports)
    return constant, reports
