"""Experiment orchestration and report emission.

Each subcommand runs one laboratory experiment from an ExperimentConfig
(JSON file plus flag overrides), writes CSV tables (RFC 4180), a JSON
summary, and a plain-text verdict with one PASS/FAIL/OBSERVED line per
checked inequality. PASS/FAIL is reserved for checks with both sides
computable; empirical constants are OBSERVED. Fixed seed and config give
byte-identical CSV output on one platform.

Exit codes: 0 all checks pass, 1 any FAIL, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import numbers
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field as dfield
from functools import cached_property
from pathlib import Path

import numpy as np

from . import degiorgi, generators, liouville_lab
from .caccioppoli import caccioppoli_check, empirical_constant
from .domain_grid import MIN_BAND_NODES, Grid, make_grid
from .elliptic_solver import solve_dirichlet
from .errors import (
    DegreeUndetectedError,
    GridTooCoarseError,
    KernelUnderResolvedError,
    NotHarmonicParametersError,
    SchauderLabError,
)
from .field_calculus import Field
from .schauder_harness import (
    SchauderConfig,
    admissible_alpha,
    blowup_sequence,
    bootstrap_ckalpha,
    check_eps_schedule,
    inner_box,
    measure_pointwise_exponent,
    regularize_approximate,
    schauder_ratio,
)

CONFIG_KEYS = {"command", "seed", "resolution", "out", "params"}

_LIOUVILLE_GENERATORS = {
    "saddle": (lambda x, y: x**2 - y**2, 2.0),
    "linear": (lambda x, y: 0.7 * x - 0.2 * y + 0.3, 1.5),
    "constant": (lambda x, y: np.full_like(x, 3.0), 0.5),
}
_LIOUVILLE_KINDS = (*_LIOUVILLE_GENERATORS, "counterexample")

# Radii the runners fix: the schauder exponent shells, the blow-up cutoff
# and the bootstrap radius chain.
_SCHAUDER_SHELLS = (0.03, 0.4)
_BLOWUP_RADII = (0.2, 0.8)
_BOOTSTRAP_RADII = (0.25, 0.8)


@dataclass(frozen=True)
class CommandSpec:
    """What one subcommand is; SPECS holds one per command.

    ``params`` maps the keys the runner reads to their defaults, None for
    one the runner derives (the liouville gamma and scales from the
    generator, the mollify schedule from the grid spacing); any other key is
    rejected. ``ranges`` holds (key, test, what the key must be) for each
    bounded param. ``least_resolution(params)`` is the smallest resolution
    that passes the runner's grid-size checks, and ``check(cfg)`` raises on
    anything else the runner would reject, before any solve.
    ``runner(cfg, verdict)`` records its lines in the verdict and returns
    (summary, tables): the summary.json payload and {file name: text}.
    ``checks`` are the PASS/FAIL names the runner may record.
    """

    params: dict
    ranges: tuple
    runner: Callable
    checks: tuple = ()
    least_resolution: Callable = lambda p: 3
    check: Callable | None = None


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _whole(value, least) -> bool:
    return _is_number(value) and float(value).is_integer() and value >= least


def _odd_nodes(m) -> bool:
    """A node count ``make_grid`` accepts: an odd whole number >= 3."""
    return _whole(m, 3) and m % 2 == 1


def _finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


def _finite_numbers(values, count: int) -> bool:
    """A list of ``count`` finite numbers."""
    return isinstance(values, (list, tuple)) and len(values) == count and all(map(_finite, values))


def _ladder(values, rising: bool) -> bool:
    """At least two numbers, strictly increasing (or decreasing)."""
    if not isinstance(values, (list, tuple)) or len(values) < 2 or not all(map(_is_number, values)):
        return False
    return all(b > a if rising else b < a for a, b in zip(values, values[1:]))


def _count(key, least=1):
    return key, lambda p: _whole(p[key], least), f"be a whole number >= {least}"


def _between(key, lo, hi):
    return key, lambda p: lo < p[key] < hi, f"lie in ({lo}, {hi})"


# 0 < r < R <= 1: the ball of radius R stays in the unit box
_RADII = (
    ("r", lambda p: 0 < p["r"] < p["R"], "satisfy 0 < r < R"),
    ("R", lambda p: p["R"] <= 1, "be at most 1, the box half-width"),
)


def _least(fits) -> int:
    """The smallest odd resolution m >= 3 whose grid ``fits``."""
    m = 3
    while not fits(make_grid(2, 1.0, m)):
        m += 2
    return m


def _spanning(band: float) -> int:
    """The least resolution at which a cutoff band spans MIN_BAND_NODES spacings."""
    return _least(lambda grid: band >= MIN_BAND_NODES * grid.h)


def _reject_unknown(kind: str, spec, known) -> None:
    if not isinstance(spec, dict):
        raise ValueError(f"{kind} must be a JSON object, got {type(spec).__name__}")
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ValueError(f"unknown {kind} keys {unknown}; known: {sorted(known)}")


@dataclass
class ExperimentConfig:
    """One experiment; ``params`` is completed from SPECS[command].params
    and ``out_dir`` defaults to reports/<command>. ``seed``, ``resolution``
    and every param with a numeric default must be numbers (not bools),
    ``seed`` a whole number >= 0, ``resolution`` an odd node count no
    smaller than the command's least_resolution, every param in its range
    and the command's check must pass; otherwise a ValueError names the key,
    before any solve or output, as does a domain error from the check."""

    command: str
    out_dir: Path | None = None
    seed: int = 0
    resolution: int = 129
    params: dict = dfield(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}; known: {COMMANDS}")
        spec = SPECS[self.command]
        _reject_unknown(f"{self.command} params", self.params, spec.params)
        self.params = {**spec.params, **self.params}
        numeric = [(key, self.params[key]) for key, default in spec.params.items() if _is_number(default)]
        for key, value in [("seed", self.seed), ("resolution", self.resolution), *numeric]:
            if not _is_number(value):
                raise ValueError(f"{self.command} {key!r} must be a number, got {value!r}")
        if not _whole(self.seed, 0):
            raise ValueError(f"{self.command} 'seed' must be a whole number >= 0, got {self.seed!r}")
        if not _odd_nodes(self.resolution):
            raise ValueError(
                f"{self.command} 'resolution' must be an odd whole number >= 3, got {self.resolution!r}"
            )
        for key, test, what in spec.ranges:
            if not test(self.params):
                raise ValueError(f"{self.command} {key!r} must {what}, got {self.params[key]!r}")
        least = spec.least_resolution(self.params)
        if self.resolution < least:
            raise ValueError(
                f"{self.command} 'resolution' must be at least {least} for these params, "
                f"got {self.resolution!r}"
            )
        if spec.check is not None:
            spec.check(self)
        self.out_dir = Path("reports", self.command) if self.out_dir is None else Path(self.out_dir)
        self.seed, self.resolution = int(self.seed), int(self.resolution)

    @cached_property
    def grid(self) -> Grid:
        """The run's grid, built once: the unit box at ``resolution`` nodes per axis."""
        return make_grid(2, 1.0, self.resolution)


def load_config(path=None, overrides=None, command=None) -> ExperimentConfig:
    """The config in the JSON file at ``path`` (none: empty), with every
    non-None value of ``overrides`` on top. A given ``command`` fills in a
    missing one and must match a present one."""
    spec = {} if path is None else json.loads(Path(path).read_text())
    _reject_unknown("config", spec, CONFIG_KEYS)
    if command is not None and spec.setdefault("command", command) != command:
        raise ValueError(f"config command {spec['command']!r} does not match subcommand {command!r}")
    merged = {**spec, **{k: v for k, v in (overrides or {}).items() if v is not None}}
    return ExperimentConfig(command=merged.pop("command", None), out_dir=merged.pop("out", None), **merged)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def csv_text(rows) -> str:
    """An RFC 4180 table (CRLF line ends) of dict rows: the header, the
    first row's keys and then any other keys sorted, then one line per row."""
    names = list(rows[0]) if rows else []
    names += sorted({k for row in rows for k in row} - set(names))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(names)
    for row in rows:
        writer.writerow([_fmt(row[name]) for name in names])
    return out.getvalue()


@dataclass
class Verdict:
    """The check lines of one run; ``declared`` holds the PASS/FAIL names
    its command may record, and ok() rejects any other."""

    declared: tuple
    checks: list = dfield(default_factory=list)

    def record(self, status: str, name: str, detail: str) -> None:
        self.checks.append((status, name, detail))

    def ok(self, name: str, passed: bool, detail: str) -> None:
        if name not in self.declared:
            raise LookupError(f"check {name!r} is not declared; declared: {self.declared}")
        self.record("PASS" if passed else "FAIL", name, detail)

    def observed(self, name: str, detail: str) -> None:
        self.record("OBSERVED", name, detail)

    @property
    def failed(self) -> bool:
        return any(status == "FAIL" for status, _, _ in self.checks)

    def text(self) -> str:
        return "".join(f"{status} {name}: {detail}\n" for status, name, detail in self.checks)


# -- experiments --------------------------------------------------------------
#
# Runners as CommandSpec describes them. Only run() writes files.


# The task of the running _members pool, one pool at a time. Forked workers
# inherit it, so the runners' closures are never pickled; only member
# indices and results are. Spawned workers would need the closures pickled
# and would re-import numpy and the package, about 0.16 s each on a 2-core
# VM.
_TASK = None


def _run_task(k):
    return _TASK(k)


def _members(task, count: int) -> list:
    """[task(0), ..., task(count - 1)], run on min(usable cores, count)
    forked worker processes; with one, or where fork is unavailable, in
    this process.

    Each task builds its member from its own child seed, so results do not
    depend on the core count. They come back pickled, in member order, and
    a failure raises the error of the lowest failing member, with its type
    and attributes, as a serial loop would; the workers are then stopped,
    so members still running end with it; a killed worker raises RuntimeError.
    A solve is a multigrid loop of many short numpy/scipy calls that hold
    the GIL between them, so threads barely overlap: on a 2-vCPU Xeon VM,
    32 solves at m = 129 ran 0.97-1.27x the speed of serial on two
    threads, and 1.48-1.86x on two forked processes. A pass that makes no
    solve runs in the command's process instead: on the same VM the
    degiorgi verify pass (50 members) took 41-57 ms in process and
    54-68 ms on two forked workers, less in process in each of 12 paired
    runs. While a pool is alive, the parent and one child per worker are
    all resident; each member should keep only what later passes read,
    since the parent's memory grows with the ensemble by what the members
    return.
    """
    import multiprocessing  # loaded only when an ensemble runs

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cores, count)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return list(map(task, range(count)))

    global _TASK
    _TASK = task
    before = set(multiprocessing.active_children())
    try:
        with multiprocessing.get_context("fork").Pool(workers) as pool:  # its exit terminates the workers
            staff = set(multiprocessing.active_children()) - before
            pending = pool.imap(_run_task, range(count))
            results = []
            while len(results) < count:
                try:
                    results.append(pending.next(timeout=0.1))
                except multiprocessing.TimeoutError:  # Pool replaces a killed worker but drops its member
                    if not all(worker.is_alive() for worker in staff):
                        raise RuntimeError("an ensemble worker process died before its member returned") from None
            return results
    finally:
        _TASK = None


def _run_solve(cfg: ExperimentConfig, verdict: Verdict) -> tuple:
    resolutions = cfg.params["resolutions"]
    errors = []
    rows = []
    for m in resolutions:
        grid = make_grid(2, 1.0, m)
        prob, exact = generators.sine_forcing_problem(grid)
        sol = solve_dirichlet(prob)
        err = float(np.abs(sol.u.values - exact.values).max())
        errors.append(err)
        rows.append(
            {
                "m": m, "max_err": err,
                "ratio": errors[-2] / err if len(errors) > 1 else float("nan"),
                "iterations": sol.diagnostics["iterations"],
                "residual": sol.diagnostics["residual"],
            }
        )
    table = csv_text(rows)
    ratios = [row["ratio"] for row in rows[1:]]
    verdict.ok(
        "manufactured_convergence_order",
        all(3.5 <= r <= 4.5 for r in ratios),
        f"refinement ratios {['%.3f' % r for r in ratios]} target [3.5, 4.5]",
    )
    prob, exact = generators.harmonic_saddle_problem(cfg.grid)
    sol = solve_dirichlet(prob)
    err = float(np.abs(sol.u.values - exact.values).max())
    verdict.ok("exact_discrete_harmonic", err <= 1e-10, f"max error {err:.3e} <= 1e-10")
    return {"errors": errors, "harmonic_error": err}, {"solve_convergence.csv": table}


def _run_caccioppoli(cfg: ExperimentConfig, verdict: Verdict) -> tuple:
    m = cfg.resolution
    size = int(cfg.params["ensemble"])
    r = float(cfg.params["r"])
    R = float(cfg.params["R"])
    grid = cfg.grid

    def member(k):
        # the report and (lam, Lam, L); the solution is dropped here
        sol = solve_dirichlet(generators.random_problem(grid, np.random.default_rng([cfg.seed, k])))
        A = sol.problem.A
        return caccioppoli_check(sol, r, R), (A.lam, A.Lam, A.L)

    constant, reports = empirical_constant(_members(member, size))
    tables = {
        "caccioppoli_reports.csv": csv_text([rep.to_row() for rep in reports]),
        "caccioppoli_reports.json": "[" + ",\n".join(rep.to_json() for rep in reports) + "]\n",
    }
    verdict.observed("caccioppoli_empirical_constant", f"max ratio {constant:.4f} over {size} instances")
    return {"constant": constant, "ensemble": size, "m": m}, tables


def _degiorgi(cfg: ExperimentConfig) -> degiorgi.DeGiorgiParams:
    """The runner's De Giorgi parameters, exponents checked; p and q pass as
    given, so that a rejection quotes them as the config wrote them."""
    return degiorgi.DeGiorgiParams(
        n=2, p=cfg.params["p"], q=cfg.params["q"], r=cfg.params["r"], R=cfg.params["R"],
        k_max=int(cfg.params["k_max"]),
    )


def _run_degiorgi(cfg: ExperimentConfig, verdict: Verdict) -> tuple:
    m = cfg.resolution
    size = int(cfg.params["ensemble"])
    params = _degiorgi(cfg)
    grid = cfg.grid

    def train(k):
        # ((sup, denom, ||f||_p + ||F||_q), u): the problem is dropped with the solution here
        sol = solve_dirichlet(generators.sup_bound_problem(grid, np.random.default_rng([cfg.seed, k])))
        return degiorgi.training_ratio(sol, params), sol.u

    members = _members(train, size)
    delta, bound = degiorgi.calibrate_delta([ratio for ratio, _ in members], params)

    rows = []
    all_ok = True
    min_fit = float("inf")
    # the verify pass makes no solve, so it runs in this process: forking a
    # pool for it costs more than it saves
    for k, ((_, denom, data_norm), u) in enumerate(members):
        # sqrt(delta) over the pass-1 denom: the bits normalize_solution gives
        theta = math.sqrt(delta) / denom
        u = theta * u
        report = degiorgi.no_spike_verify(u, theta * data_norm, params)
        trace = degiorgi.truncation_sequence(u, params, sign="auto")
        all_ok &= report.verified
        if not math.isnan(trace.fitted_exponent):
            min_fit = min(min_fit, trace.fitted_exponent)
        else:
            all_ok = False
        row = {
            "instance": k, "theta": theta, "sign": trace.sign,
            "verified": report.verified, "fitted_exponent": trace.fitted_exponent,
            "pairs": trace.regression_pairs,
        }
        for j, e in enumerate(trace.E):
            row[f"E{j}"] = float(e)
        rows.append(row)
    verdict.ok("no_spike_all_instances", all_ok, f"{size} normalized instances, delta = {delta:.6g}")
    verdict.ok(
        "fitted_decay_superlinear",
        min_fit >= 1.0 + params.gamma / 2,
        f"min fitted exponent {min_fit:.3f} >= 1 + gamma/2 = {1 + params.gamma / 2:.3f}",
    )
    clamp = "binds" if bound > degiorgi.DELTA_CEILING else "does not bind"
    verdict.observed("delta_calibrated", f"delta = {delta!r} frozen for this configuration; "
                     f"bound min (denom/sup)^2 = {bound!r}, clamp {degiorgi.DELTA_CEILING!r} {clamp}")
    summary = {
        "delta": delta, "delta_bound": bound, "gamma": params.gamma, "tau": params.tau,
        "ensemble": size, "m": m, "min_fit": min_fit, "series_sums": params.series_sums,
    }
    return summary, {"degiorgi_traces.csv": csv_text(rows)}


def _run_liouville(cfg: ExperimentConfig, verdict: Verdict) -> tuple:
    kind = cfg.params["generator"]
    m = cfg.resolution
    rows = []
    summary = {}
    if kind == "counterexample":
        gen = liouville_lab.counterexample_generator(cfg.params["a"], cfg.params["b"])
        gamma, scales = 10.0, liouville_lab.DISCRIMINATION_SCALES
    else:
        gen, gamma = _LIOUVILLE_GENERATORS[kind]
        scales = liouville_lab.DEFAULT_SCALES
    if cfg.params["gamma"] is not None:
        gamma = float(cfg.params["gamma"])
    if cfg.params["scales"] is not None:
        scales = cfg.params["scales"]
    fam = liouville_lab.GrowthFamily(gen, gamma, scales=scales, m=m)
    verdict.ok(
        "harmonic_residual_gate",
        fam.harmonic_gate(),
        f"{kind}: residual O(h^2) at scales {list(fam.scales)}",
    )
    for k in (1, 2, 3):
        scan = liouville_lab.derivative_energy_scan(fam, k)
        for scale, energy in zip(scan.scales, scan.energies):
            rows.append({"order": k, "scale": float(scale), "energy": float(energy),
                         "slope": scan.slope, "at_floor": scan.at_floor})
        summary[f"slope_k{k}"] = scan.slope
        summary[f"floor_k{k}"] = scan.at_floor
    table = csv_text(rows)
    growth = liouville_lab.verify_growth(fam)
    if kind == "counterexample":
        verdict.ok(
            "superpolynomial_growth_rejected",
            not growth["verified"],
            f"max window slope {growth['max_slope']:.2f}, target > {_growth_limit(gamma)}",
        )
        try:
            liouville_lab.polynomial_degree_detect(fam)
            verdict.ok("degree_undetected", False, "a degree was detected for the counterexample")
        except DegreeUndetectedError:
            verdict.ok("degree_undetected", True, "no derivative order up to 3 annihilates the field")
        except NotHarmonicParametersError:
            verdict.ok("degree_undetected", False, "failed the harmonic gate instead")
    else:
        verdict.ok(
            "growth_tag_verified", growth["verified"],
            f"max window slope {growth['max_slope']:.3f}, target <= {_growth_limit(gamma)}",
        )
        degree = liouville_lab.polynomial_degree_detect(fam)
        verdict.ok(
            "degree_within_growth_tag", degree <= math.floor(gamma),
            f"detected degree {degree}, target <= floor(gamma) = {math.floor(gamma)}",
        )
        summary["degree"] = degree
    summary["max_window_slope"] = growth["max_slope"]
    return summary, {"liouville_scan.csv": table}


def _growth_limit(gamma: float) -> str:
    """The window-slope bound of ``verify_growth``, as printed in verdicts."""
    slack = liouville_lab.GROWTH_SLOPE_SLACK
    return f"gamma + {slack} = {gamma + slack:g}"


def _run_schauder(cfg: ExperimentConfig, verdict: Verdict) -> tuple:
    m = cfg.resolution
    s = float(cfg.params["s"])
    grid = cfg.grid
    prob, exact = generators.radial_singular_problem(grid, s)
    sol = solve_dirichlet(prob)
    measured = measure_pointwise_exponent(sol.u, (0.0, 0.0), *_SCHAUDER_SHELLS)
    target = 2.0 - s
    verdict.ok(
        "singular_family_threshold_exponent",
        abs(measured - target) <= 0.05 * target,
        f"measured {measured:.4f} vs 2 - s = {target}",
    )
    size = int(cfg.params["ensemble"])
    alpha = 0.7 * admissible_alpha(grid.n, 4.0, 8.0)
    scfg = SchauderConfig(order=0, alpha=alpha, p=4.0, q=8.0, r=0.3, R=0.8)

    def member(k):
        problem = generators.random_problem(grid, np.random.default_rng([cfg.seed, k]), rough_alpha=0.6)
        return schauder_ratio(solve_dirichlet(problem), scfg)

    reports = _members(member, size)
    verdict.observed(
        "schauder_max_ratio", f"{max(rep.ratio for rep in reports):.4f} at m = {m}"
    )
    table = csv_text([rep.to_row() for rep in reports])
    return {"exponent": measured, "alpha": alpha}, {"schauder_reports.csv": table}


def _run_blowup(cfg: ExperimentConfig, verdict: Verdict) -> tuple:
    alpha = float(cfg.params["alpha"])
    grid = cfg.grid
    u = Field(grid, grid.radius_from(np.zeros(grid.n)) ** alpha)
    scfg = SchauderConfig(order=0, alpha=alpha, p=4.0, q=8.0, r=_BLOWUP_RADII[0], R=_BLOWUP_RADII[1])
    record = blowup_sequence(u, scfg, steps=int(cfg.params["steps"]))
    step = record.steps[0]
    rows = [
        {
            "step": k, "x": str(st.x), "y": str(st.y), "separation": st.separation,
            "level": st.level, "v_seminorm": st.v_seminorm,
            "fit": float("nan") if st.fit is None else st.fit.exponent,
        }
        for k, st in enumerate(record.steps)
    ]
    table = csv_text(rows)
    verdict.ok(
        "blowup_seminorm_normalized", step.v_seminorm <= 1.05,
        f"[v] = {step.v_seminorm:.4f} <= 1.05",
    )
    verdict.ok(
        "blowup_growth_exponent",
        abs(record.growth_exponent - alpha) <= 0.1 * alpha,
        f"fitted {record.growth_exponent:.4f} vs alpha = {alpha}",
    )
    return {"growth_exponent": record.growth_exponent}, {"blowup_steps.csv": table}


def _run_bootstrap(cfg: ExperimentConfig, verdict: Verdict) -> tuple:
    problem = generators.random_problem(cfg.grid, np.random.default_rng(cfg.seed), beta=0.15)
    report = bootstrap_ckalpha(problem, int(cfg.params["k"]), float(cfg.params["alpha"]), *_BOOTSTRAP_RADII)
    rows = []
    for level, reps in enumerate(report.levels, start=1):
        for rep in reps:
            rows.append({"level": level, "inequality": rep.inequality,
                         "lhs": rep.lhs, "rhs": rep.rhs_total, "ratio": rep.ratio})
    table = csv_text(rows)
    verdict.observed("bootstrap_chained_constant", f"{report.chained_constant:.4f}")
    return {"chained": report.chained_constant}, {"bootstrap_levels.csv": table}


def _check_mollify(cfg: ExperimentConfig) -> None:
    if cfg.params["eps_schedule"] is not None:
        try:
            check_eps_schedule(cfg.grid, cfg.params["eps_schedule"])
        except (GridTooCoarseError, KernelUnderResolvedError, ValueError) as exc:
            raise ValueError(
                f"mollify 'eps_schedule' does not fit resolution {cfg.resolution}: {exc}"
            ) from exc


def _run_mollify(cfg: ExperimentConfig, verdict: Verdict) -> tuple:
    grid = cfg.grid
    problem = generators.random_problem(grid, np.random.default_rng(cfg.seed), rough_alpha=0.4)
    schedule = cfg.params["eps_schedule"]
    if schedule is None:
        schedule = [8 * grid.h, 4 * grid.h, 2 * grid.h * 1.01]
    record = regularize_approximate(problem, schedule)
    table = csv_text(record.rows)
    verdict.ok("approximation_h1_decreasing", record.decreasing,
               f"gaps {['%.3e' % row['h1_gap'] for row in record.rows]}")
    verdict.ok("approximation_l2_bound", record.l2_bound_ok, "||u_eps||_2 <= 2 ||u||_2")
    return {"gaps": [row["h1_gap"] for row in record.rows]}, {"mollify_convergence.csv": table}


# One record per command, in the order of COMMANDS. Least resolutions: a
# cutoff band must span MIN_BAND_NODES spacings (caccioppoli, blowup,
# bootstrap). Liouville's harmonic gate needs 5 nodes per axis and schauder
# three populated shells in _SCHAUDER_SHELLS. A mollify kernel must fit the
# margin of the inner box: the default schedule starts with an 8h kernel, 7
# nodes in radius; an explicit one has eps_0 > eps_1 >= 2h, so its first
# kernel is at least 2 nodes in radius, and its check tests the rest.
# degiorgi's check tests its ladder. Running each command at every odd
# resolution from 3 up gives the same minima at the defaults.
SPECS = {
    "solve": CommandSpec(
        params={"resolutions": (65, 129, 257)},
        ranges=(
            ("resolutions",
             lambda p: _ladder(p["resolutions"], True) and all(map(_odd_nodes, p["resolutions"])),
             "be at least two increasing odd whole numbers >= 3"),
        ),
        runner=_run_solve,
        checks=("manufactured_convergence_order", "exact_discrete_harmonic"),
    ),
    "caccioppoli": CommandSpec(
        params={"ensemble": 8, "r": 0.5, "R": 0.95},
        ranges=(_count("ensemble"), *_RADII),
        runner=_run_caccioppoli,
        least_resolution=lambda p: _spanning(p["R"] - p["r"]),
    ),
    "degiorgi": CommandSpec(
        params={"ensemble": 50, "p": 2.0, "q": 4.0, "r": 0.5, "R": 1.0, "k_max": 3},
        ranges=(_count("ensemble"), *_RADII, _count("k_max", 3)),
        runner=_run_degiorgi,
        checks=("no_spike_all_instances", "fitted_decay_superlinear"),
        check=lambda cfg: _degiorgi(cfg).require_resolved_ladder(cfg.grid.h),
    ),
    "liouville": CommandSpec(
        params={"generator": "saddle", "a": (1.0, 0.0), "b": (0.0, 1.0), "gamma": None, "scales": None},
        ranges=(
            ("gamma", lambda p: p["gamma"] is None or _finite(p["gamma"]), "be null or a finite number"),
            *((key, lambda p, key=key: _finite_numbers(p[key], 2), "be two finite numbers") for key in ("a", "b")),
            ("scales", lambda p: p["scales"] is None or (
                isinstance(p["scales"], (list, tuple)) and len(p["scales"]) >= 4
                and all(_finite(r) and r > 0 for r in p["scales"])
                and len(set(p["scales"])) == len(p["scales"])),
             "be null or at least four distinct positive radii"),
            ("generator", lambda p: p["generator"] in _LIOUVILLE_KINDS, f"be one of {_LIOUVILLE_KINDS}"),
        ),
        runner=_run_liouville,
        checks=(
            "harmonic_residual_gate", "superpolynomial_growth_rejected", "degree_undetected",
            "growth_tag_verified", "degree_within_growth_tag",
        ),
        least_resolution=lambda p: 5,
    ),
    "schauder": CommandSpec(
        params={"s": 0.5, "ensemble": 10},
        ranges=(_between("s", 0, 2), _count("ensemble")),
        runner=_run_schauder,
        checks=("singular_family_threshold_exponent",),
        least_resolution=lambda p: 13,
    ),
    "blowup": CommandSpec(
        params={"alpha": 0.5, "steps": 2},
        ranges=(_between("alpha", 0, 1), _count("steps")),
        runner=_run_blowup,
        checks=("blowup_seminorm_normalized", "blowup_growth_exponent"),
        least_resolution=lambda p: _spanning(_BLOWUP_RADII[1] - _BLOWUP_RADII[0]),
    ),
    "bootstrap": CommandSpec(
        params={"k": 2, "alpha": 0.4},
        ranges=(("k", lambda p: p["k"] in (2, 3), "be 2 or 3"), _between("alpha", 0, 1)),
        runner=_run_bootstrap,
        least_resolution=lambda p: _spanning(
            float(np.diff(np.geomspace(*_BOOTSTRAP_RADII, int(p["k"]) + 1)).min())
        ),
    ),
    "mollify": CommandSpec(
        params={"eps_schedule": None},
        ranges=(
            ("eps_schedule", lambda p: p["eps_schedule"] is None or (
                _ladder(p["eps_schedule"], False) and p["eps_schedule"][-1] > 0),
             "be null or at least two strictly decreasing positive radii"),
        ),
        runner=_run_mollify,
        checks=("approximation_h1_decreasing", "approximation_l2_bound"),
        least_resolution=lambda p: _least(
            lambda grid: inner_box(grid)[1] >= (7 if p["eps_schedule"] is None else 2)
        ),
        check=_check_mollify,
    ),
}
COMMANDS = tuple(SPECS)


def run(cfg: ExperimentConfig) -> Verdict:
    """Execute one experiment, then write its tables, summary.json and
    verdict.txt under ``cfg.out_dir``. The directory is made only once the
    runner has returned, so a run that raises leaves no output behind.
    summary.json is strict JSON: a non-finite number is written as null."""
    spec = SPECS[cfg.command]
    verdict = Verdict(spec.checks)
    summary, tables = spec.runner(cfg, verdict)
    payload = {
        "command": cfg.command, "seed": cfg.seed, "resolution": cfg.resolution,
        "summary": summary,
        "checks": [{"status": s, "name": n, "detail": d} for s, n, d in verdict.checks],
    }
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)  # NaN, +-Infinity: null
    tables["summary.json"] = json.dumps(strict, indent=2, allow_nan=False)
    tables["verdict.txt"] = verdict.text()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in tables.items():
        (cfg.out_dir / name).write_text(text, encoding="utf-8", newline="")
    return verdict


# -- command line ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="schauderlab",
        description="Interior elliptic estimate experiments: solve, verify, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=Path, default=None)
        cmd.add_argument("--out", type=Path, default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--resolution", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            {"out": args.out, "seed": args.seed, "resolution": args.resolution},
            command=args.command,
        )
    except (SchauderLabError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        verdict = run(cfg)
    except (SchauderLabError, ValueError) as exc:
        print(f"configuration error ({cfg.command}): {exc}", file=sys.stderr)
        return 2
    for status, name, detail in verdict.checks:
        print(f"{status} {name}: {detail}")
    return 1 if verdict.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
