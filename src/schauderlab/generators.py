"""Problem generators: manufactured solutions, the singular radial family,
and reproducible random ensembles with certified coefficient bounds.

Random coefficient matrices are smooth trigonometric perturbations of the
identity. With per-entry amplitude budget beta the certificates are analytic:
    lam >= 1 - n*beta,   Lam <= 1 + n*beta,   L <= 1 + beta,
    Lip(a_ij) <= beta * max|omega|,
    [a_ij]_alpha <= Lip^alpha * (2 beta)^(1-alpha)   (sup/Lipschitz interpolation),
so every ensemble member carries the same (lam, Lam, L) certification by
construction. Rough Holder textures stack octaves 4^{-j alpha} sin(4^j w.x).

Every plane-wave sum is evaluated separably (``_plane_waves``): by angle
addition, sin(phi + w.x) is a sum of signed products of sin/cos(phi) and the
per-axis vectors sin/cos(w_j x_j), so a field of K terms costs 2 K n m
one-dimensional sines instead of K m^n, and no sine is taken of a rounded
sum w.x + phi. The manufactured problems sample from the per-axis views too.
"""

from __future__ import annotations

import numpy as np

from .domain_grid import Grid
from .elliptic_solver import CoefficientField, EllipticProblem
from .field_calculus import Field, VecField


def sine_forcing_problem(grid: Grid) -> tuple:
    """-Laplace u = 2 pi^2 sin(pi x) sin(pi y), zero boundary; exact solution
    sin(pi x) sin(pi y). Returns (problem, exact_field)."""
    if grid.n != 2:
        raise ValueError("manufactured sine problem is two-dimensional")
    x, y = grid.axis_views()
    sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
    f = Field(grid, 2 * np.pi**2 * sx * sy)
    exact = Field(grid, sx * sy)
    prob = EllipticProblem(
        A=CoefficientField.identity(grid), f=f, F=VecField.zeros(grid), g=Field.zeros(grid)
    )
    return prob, exact


def harmonic_saddle_problem(grid: Grid) -> tuple:
    """Dirichlet data x^2 - y^2 with zero data: the discrete solution equals
    the quadratic exactly (5-point stencils annihilate it)."""
    if grid.n != 2:
        raise ValueError("saddle problem is two-dimensional")
    x, y = grid.axis_views()
    gb = Field(grid, x**2 - y**2)
    prob = EllipticProblem(
        A=CoefficientField.identity(grid), f=Field.zeros(grid), F=VecField.zeros(grid), g=gb
    )
    return prob, gb


def radial_singular_problem(grid: Grid, s: float, p: float = 4.0, q: float = 8.0) -> tuple:
    """Forcing -|x|^{-s} with the exact radial solution |x|^{2-s}/((2-s)(n-s)).

    The forcing is singular at the origin node; there it is evaluated at
    radius h/2 (half-cell regularization). Boundary data is the exact
    solution, so the discrete solution approximates it globally. Returns
    (problem, exact_field).
    """
    if not 0 < s < 2:
        raise ValueError(f"exponent s must lie in (0, 2), got {s}")
    radius = grid.radius_from(np.zeros(grid.n))
    reg = np.where(radius > 0, radius, grid.h / 2)
    f = Field(grid, -(reg**-s))
    scale = 1.0 / ((2.0 - s) * (grid.n - s))
    exact = Field(grid, scale * radius ** (2.0 - s))
    prob = EllipticProblem(
        A=CoefficientField.identity(grid), f=f, F=VecField.zeros(grid), g=exact, p=p, q=q
    )
    return prob, exact


# Frequency bound and term count of each trig coefficient entry, and the
# octave count of each rough Holder entry.
TRIG_MAX_FREQ = 3.0
TRIG_TERMS = 3
ROUGH_OCTAVES = 4


def _plane_waves(grid: Grid, amps, omegas, phases) -> np.ndarray:
    """sum_k amps[k] sin(omegas[k] . x + phases[k]) at every node.

    After step j, s and c hold a_k sin and a_k cos of phi_k + omega_k0 x_0
    + ... + omega_kj x_j on the first j + 1 axes, by angle addition from
    the per-axis sines and cosines. One einsum over the grid then adds the
    last axis for all terms at once; without ``optimize`` einsum calls no
    BLAS, so the bytes do not depend on the BLAS thread count.
    """
    amps, phases = np.asarray(amps), np.asarray(phases)
    theta = np.asarray(omegas)[:, :, None] * grid.axis
    sin, cos = np.sin(theta), np.cos(theta)
    s = (amps * np.sin(phases))[:, None]
    c = (amps * np.cos(phases))[:, None]
    for j in range(grid.n - 1):
        sj, cj = sin[:, j, None, :], cos[:, j, None, :]
        s, c = (
            (s[:, :, None] * cj + c[:, :, None] * sj).reshape(len(s), -1),
            (c[:, :, None] * cj - s[:, :, None] * sj).reshape(len(s), -1),
        )
    last = np.concatenate([cos[:, -1], sin[:, -1]]).T
    return np.einsum("ar,kr->ak", np.concatenate([s, c]).T, last).reshape(grid.shape)


def _trig_sum(grid: Grid, rng, terms: int, amplitude: float, max_freq: float):
    """Random smooth field sum_k a_k sin(w_k . x + phi_k) with sum|a_k| =
    amplitude; returns (values, lipschitz_bound)."""
    amps = rng.uniform(0.5, 1.0, size=terms)
    amps *= amplitude / amps.sum()
    omegas, phases = [], []
    lip = 0.0
    for a in amps:
        omega = rng.uniform(-max_freq, max_freq, size=grid.n)
        omegas.append(omega)
        phases.append(rng.uniform(0, 2 * np.pi))
        lip += a * float(np.linalg.norm(omega))
    return _plane_waves(grid, amps, omegas, phases), lip


def trig_coefficient_field(
    grid: Grid,
    rng,
    beta: float = 0.2,
    symmetric: bool = True,
    holder_alpha: float | None = None,
) -> CoefficientField:
    """Identity plus smooth trig perturbations with |B_ij| <= beta nodewise."""
    if not 0 <= beta < 1.0 / grid.n:
        raise ValueError(f"amplitude budget must satisfy beta < 1/n, got {beta}")
    n = grid.n
    entries = np.zeros((n, n) + grid.shape)
    lip = 0.0
    for i in range(n):
        for j in range(n):
            if symmetric and j < i:
                entries[i, j] = entries[j, i]
                continue
            vals, lij = _trig_sum(grid, rng, TRIG_TERMS, beta, TRIG_MAX_FREQ)
            entries[i, j] = vals
            lip = max(lip, lij)
    for i in range(n):
        entries[i, i] += 1.0
    A = CoefficientField(grid, entries)
    A.set_lipschitz_certificate(lip)
    if holder_alpha is not None:
        A.set_holder_certificate(holder_alpha, lip**holder_alpha * (2 * beta) ** (1 - holder_alpha))
    return A


def rough_holder_coefficient_field(
    grid: Grid, rng, alpha: float, beta: float = 0.2
) -> CoefficientField:
    """Identity plus a symmetric lacunary sum of octaves: genuinely C^{0,alpha}
    texture.

    Each octave j contributes amp_j sin(4^j w.x + phi) with amp_j ~ 4^{-j
    alpha}; the Holder-alpha certificate is the sum of per-octave bounds
    min-interpolated between slope and sup.
    """
    n = grid.n
    entries = np.zeros((n, n) + grid.shape)
    amp0 = beta / sum(4.0 ** (-k * alpha) for k in range(ROUGH_OCTAVES))
    holder_bound = 0.0
    for i in range(n):
        for j in range(n):
            if j < i:
                entries[i, j] = entries[j, i]
                continue
            amps, omegas, phases = [], [], []
            bound = 0.0
            for k in range(ROUGH_OCTAVES):
                amp = amp0 * 4.0 ** (-k * alpha)
                omega = 4.0**k * rng.uniform(0.7, 1.3, size=n) * np.sign(rng.uniform(-1, 1, size=n))
                amps.append(amp)
                omegas.append(omega)
                phases.append(rng.uniform(0, 2 * np.pi))
                lip_k = amp * float(np.linalg.norm(omega))
                bound += lip_k**alpha * (2 * amp) ** (1 - alpha)
            entries[i, j] = _plane_waves(grid, amps, omegas, phases)
            holder_bound = max(holder_bound, bound)
    for i in range(n):
        entries[i, i] += 1.0
    A = CoefficientField(grid, entries)
    A.set_holder_certificate(alpha, holder_bound)
    return A


def random_problem(
    grid: Grid,
    rng,
    beta: float = 0.2,
    rough_alpha: float | None = None,
    p: float = 4.0,
    q: float = 8.0,
) -> EllipticProblem:
    """One reproducible random instance: certified A, smooth trig f, F, g.

    Analytic Lipschitz/sup certificates for f and F ride along in the
    problem's certificate dict (Holder bounds follow by interpolation).
    """
    if rough_alpha is None:
        A = trig_coefficient_field(grid, rng, beta=beta, holder_alpha=0.5)
    else:
        A = rough_holder_coefficient_field(grid, rng, alpha=rough_alpha, beta=beta)
    f_amp = rng.uniform(0.5, 2.0)
    f_vals, f_lip = _trig_sum(grid, rng, terms=3, amplitude=f_amp, max_freq=3.0)
    g_vals, _ = _trig_sum(grid, rng, terms=2, amplitude=rng.uniform(0.2, 1.0), max_freq=2.0)
    comps = []
    F_lip = 0.0
    F_sup = 0.0
    for _ in range(grid.n):
        c_amp = rng.uniform(0.2, 1.0)
        c_vals, c_lip = _trig_sum(grid, rng, terms=2, amplitude=c_amp, max_freq=3.0)
        comps.append(c_vals)
        F_lip = max(F_lip, c_lip)
        F_sup = max(F_sup, c_amp)
    certs = {"f_lipschitz": f_lip, "f_sup": f_amp, "F_lipschitz": F_lip, "F_sup": F_sup}
    return EllipticProblem(
        A=A, f=Field(grid, f_vals), F=VecField(grid, np.stack(comps)), g=Field(grid, g_vals),
        p=p, q=q, certificates=certs,
    )


def bump_field(grid: Grid, radius: float, center=None, height: float = 1.0) -> Field:
    """Smooth compactly supported bump exp(1 - 1/(1 - |x-c|^2/radius^2))."""
    if center is None:
        center = np.zeros(grid.n)
    rho2 = (grid.radius_from(center) / radius) ** 2
    vals = np.zeros(grid.shape)
    inside = rho2 < 1.0
    vals[inside] = height * np.exp(1.0 - 1.0 / (1.0 - rho2[inside]))
    return Field(grid, vals)


def sup_bound_problem(grid: Grid, rng) -> EllipticProblem:
    """Instance family for the truncation iteration: solutions whose interior
    sup is a stable fraction of the outer data norms.

    Carried by a signed level plus low-order boundary oscillation and a
    moderate interior bump, so that after the sup-bound normalization every
    member keeps its peak above the first truncation level and the level-set
    energies decay through a usable window.
    """
    A = trig_coefficient_field(grid, rng)
    level = rng.uniform(0.7, 1.5) * rng.choice((-1.0, 1.0))
    osc, _ = _trig_sum(grid, rng, terms=2, amplitude=0.25 * abs(level), max_freq=2.0)
    gb = Field(grid, level * np.ones(grid.shape) + osc)
    centre = rng.uniform(-0.3, 0.3, size=grid.n)
    f = bump_field(
        grid, rng.uniform(0.25, 0.45), center=centre,
        height=rng.uniform(0.2, 0.5) * abs(level) * np.sign(level),
    )
    return EllipticProblem(A=A, f=f, F=VecField.zeros(grid), g=gb, p=2.0, q=4.0)
