"""Benchmark workloads: inputs made from a seed, the timed operations, and the
correctness gates that run after the timed section.

``build(workload, seed, size)`` is the set-up: it generates every input and
returns a list of ``Op``. Each op's ``run`` is one timed call into the
package's public functions; its ``check`` takes what ``run`` returned and
gives a list of failure messages (empty when the output is correct).

Package functions are looked up on the ``schauderlab`` modules at call time,
so traced runs see the wrappers that ``spans`` installs.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import schauderlab as sl
from schauderlab import cli_reports, elliptic_solver, generators, norm_engine, schauder_harness

WORKLOADS = ("solve_ladder", "holder_ladder", "cli_defaults")

# Every solver path at the sizes of the grid ladder: (dimension, m, symmetric).
# m <= 129 runs the direct solver, larger symmetric problems CG, and the
# nonsymmetric one ILU-GMRES. 3-D m = 65 is left out: the direct solver runs
# out of memory on it.
SOLVE_CASES = {
    "full": ((2, 129, True), (2, 257, True), (2, 513, True), (2, 513, False), (3, 33, True)),
    "tiny": ((2, 17, True), (2, 33, True), (2, 33, False), (3, 9, True)),
}

# (m, ball radius) pairs; at m = 129, 257 and 513 they give balls of 1 153,
# 4 637, 32 937 and 131 753 nodes, on both sides of PAIR_SCAN_CUTOFF.
HOLDER_BALLS = {
    "full": ((129, 0.3), (129, 0.6), (257, 0.8), (513, 0.8)),
    "tiny": ((33, 0.5), (129, 0.7)),
}
HOLDER_ALPHA = 0.5
BLOWUP_M = {"full": 129, "tiny": 65}

# The eight CLI experiments run at their default configuration. The tiny
# set is only for the self-test: the default experiments need m = 129.
CLI_COMMANDS = {
    "full": (cli_reports.COMMANDS, None),
    "tiny": (("caccioppoli", "liouville", "mollify"), 65),
}

# Relative agreement required between an exhaustive scan and the brute force.
HOLDER_RTOL = 1e-12


@dataclass
class Op:
    """One timed call. ``phase`` groups ops into the reported phase times."""

    name: str
    phase: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


def build(workload: str, seed: int, size: str = "full", out_dir: Path | None = None) -> list:
    if workload == "solve_ladder":
        return _solve_ops(seed, size)
    if workload == "holder_ladder":
        return _holder_ops(seed, size)
    if workload == "cli_defaults":
        return _cli_ops(seed, size, out_dir)
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


# -- solve_ladder --------------------------------------------------------------


def _solve_problem(n: int, m: int, symmetric: bool, rng):
    grid = sl.make_grid(n, 1.0, m)
    base = generators.random_problem(grid, rng)
    if symmetric:
        return base
    A = generators.trig_coefficient_field(grid, rng, beta=0.2, symmetric=False)
    return sl.EllipticProblem(A=A, f=base.f, F=base.F, g=base.g, p=base.p, q=base.q)


def check_solution(problem, sol) -> list:
    """Residual recomputed from ``assemble(problem)``; boundary equals g."""
    errors = []
    system = elliptic_solver.assemble(problem)
    interior = problem.grid.interior_mask(1)
    x = sol.u.values[interior]
    bnorm = float(np.linalg.norm(system.rhs))
    residual = float(np.linalg.norm(system.rhs - system.matrix @ x)) / (bnorm or 1.0)
    if not residual <= elliptic_solver.SOLVE_RTOL:
        errors.append(f"residual {residual:.3e} > {elliptic_solver.SOLVE_RTOL:.0e}")
    if not np.array_equal(sol.u.values[~interior], problem.g.values[~interior]):
        errors.append("boundary nodes differ from g")
    return errors


def _solve_ops(seed: int, size: str) -> list:
    ops = []
    for k, (n, m, symmetric) in enumerate(SOLVE_CASES[size]):
        problem = _solve_problem(n, m, symmetric, np.random.default_rng([seed, k]))
        name = f"solve_{n}d_{'sym' if symmetric else 'nonsym'}_m{m}"
        ops.append(
            Op(
                name,
                f"solve_{n}d",
                lambda problem=problem: elliptic_solver.solve_dirichlet(problem),
                lambda sol, problem=problem: check_solution(problem, sol),
            )
        )
    return ops


# -- holder_ladder -------------------------------------------------------------


def _cusp_field(grid, rng):
    """Smooth trig background plus a square-root cusp near the centre."""
    x, y = grid.coords()
    w = rng.uniform(1.0, 3.0, size=(2, 2))
    phase = rng.uniform(0.0, 2 * np.pi, size=2)
    smooth = np.sin(w[0, 0] * x + w[0, 1] * y + phase[0]) * np.cos(w[1, 0] * x - w[1, 1] * y + phase[1])
    c = rng.uniform(-0.1, 0.1, size=2)
    return sl.Field(grid, smooth + np.sqrt(np.hypot(x - c[0], y - c[1])))


def brute_force_holder(points: np.ndarray, samples: np.ndarray, alpha: float) -> float:
    """max over i < j of |v_i - v_j| / |x_i - x_j|^alpha, row block by row block."""
    if samples.ndim == 1:
        samples = samples[:, None]
    best = 0.0
    for i in range(len(points) - 1):
        dx = points[i + 1 :] - points[i]
        dv = samples[i + 1 :] - samples[i]
        dist = np.sqrt((dx * dx).sum(axis=1))
        gap = np.sqrt((dv * dv).sum(axis=1))
        best = max(best, float((gap / dist**alpha).max()))
    return best


def _region_samples(values, valid, region):
    mask = region.mask & valid
    idx = np.argwhere(mask)
    points = region.grid.axis[idx]
    if values.ndim == region.grid.n:
        return points, values[mask]
    return points, np.stack([comp[mask] for comp in values], axis=1)


def check_holder(values, valid, region, alpha: float, result) -> list:
    """Exhaustive-size scans must match the brute force; every scan's argmax
    pair must realize the reported value."""
    errors = []
    value = result.value
    if not (np.isfinite(value) and value > 0):
        return [f"value {value!r} is not a positive number"]
    grid = region.grid
    a, b = (np.rint((np.asarray(p) + grid.half_width) / grid.h).astype(int) for p in result.argmax_pair)
    va, vb = np.atleast_1d(values[(...,) + tuple(a)]), np.atleast_1d(values[(...,) + tuple(b)])
    realized = float(np.linalg.norm(va - vb)) / float(np.linalg.norm(grid.axis[a] - grid.axis[b])) ** alpha
    if not abs(realized - value) <= HOLDER_RTOL * value:
        errors.append(f"argmax pair realizes {realized!r}, reported {value!r}")
    points, samples = _region_samples(values, valid, region)
    if len(points) <= norm_engine.PAIR_SCAN_CUTOFF:
        exact = brute_force_holder(points, samples, alpha)
        if not abs(exact - value) <= HOLDER_RTOL * exact:
            errors.append(f"value {value!r} differs from brute force {exact!r}")
    return errors


def check_blowup(record, alpha: float, growth: bool) -> list:
    errors = []
    for k, step in enumerate(record.steps):
        if not step.v_seminorm <= 1.05:
            errors.append(f"step {k} normalization [v] = {step.v_seminorm:.4f} > 1.05")
    if growth and not abs(record.growth_exponent - alpha) <= 0.1 * alpha:
        errors.append(f"growth exponent {record.growth_exponent:.4f} vs alpha = {alpha}")
    return errors


def _holder_ops(seed: int, size: str) -> list:
    rng = np.random.default_rng([seed, 0])
    ops = []
    for m, radius in HOLDER_BALLS[size]:
        grid = sl.make_grid(2, 1.0, m)
        region = sl.ball_region(grid, 0.0, radius)
        cusp = _cusp_field(grid, rng)
        noise = sl.Field(grid, rng.standard_normal(grid.shape))
        grad = sl.gradient(cusp)
        nodes = int(region.mask.sum())
        phase = "holder_exact" if nodes <= norm_engine.PAIR_SCAN_CUTOFF else "holder_large"
        for label, field, fn_name in (
            ("cusp", cusp, "holder_seminorm"),
            ("noise", noise, "holder_seminorm"),
            ("gradient", grad, "holder_seminorm_vec"),
        ):
            values = field.values if fn_name == "holder_seminorm" else field.components
            ops.append(
                Op(
                    f"{fn_name}_{label}_{nodes}",
                    phase,
                    lambda fn_name=fn_name, field=field, region=region: getattr(norm_engine, fn_name)(
                        field, HOLDER_ALPHA, region
                    ),
                    lambda res, values=values, valid=field.valid, region=region: check_holder(
                        values, valid, region, HOLDER_ALPHA, res
                    ),
                )
            )
    # Blow-ups of the radial profiles |x|^(order + alpha) that the blow-up
    # CLI and acceptance criterion use; the seed draws alpha.
    grid = sl.make_grid(2, 1.0, BLOWUP_M[size])
    alpha = float(rng.uniform(0.3, 0.5))
    radius = grid.radius_from(np.zeros(2))
    for order in (0, 1):
        u = sl.Field(grid, radius ** (order + alpha))
        cfg = sl.SchauderConfig(order=order, alpha=alpha, p=4.0, q=8.0, r=0.2, R=0.8)
        ops.append(
            Op(
                f"blowup_order{order}",
                "blowup",
                lambda u=u, cfg=cfg: schauder_harness.blowup_sequence(u, cfg, steps=2),
                lambda rec, order=order: check_blowup(rec, alpha, growth=order == 0),
            )
        )
    return ops


# -- cli_defaults --------------------------------------------------------------


def run_cli(argv: list):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_reports.main(argv)
    return code, out.getvalue()


def check_cli(result) -> list:
    code, text = result
    errors = [line for line in text.splitlines() if line.startswith("FAIL")]
    if code != 0:
        errors.insert(0, f"exit code {code}")
    return errors


def _cli_ops(seed: int, size: str, out_dir: Path | None) -> list:
    if out_dir is None:
        raise ValueError("cli_defaults needs an output directory")
    shutil.rmtree(out_dir, ignore_errors=True)
    commands, resolution = CLI_COMMANDS[size]
    ops = []
    for command in commands:
        argv = [command, "--out", str(out_dir / command), "--seed", str(seed)]
        if resolution is not None:
            argv += ["--resolution", str(resolution)]
        ops.append(Op(f"cli_{command}", "cli", lambda argv=argv: run_cli(argv), check_cli))
    return ops
