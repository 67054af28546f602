import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy

from schauderlab import (
    caccioppoli,
    cli_reports,
    domain_grid,
    elliptic_solver,
    field_calculus,
    generators,
    norm_engine,
    schauder_harness,
)
from schauderlab.cli_reports import COMMANDS, SPECS, ExperimentConfig, Verdict, load_config, main, run
from schauderlab.domain_grid import make_grid
from schauderlab.errors import NotEllipticError, SolverStagnationError


def test_unknown_command_rejected(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(command="meditate", out_dir=tmp_path)


def test_config_file_with_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "solve", "seed": 4, "resolution": 65}))
    cfg = load_config(path, {"seed": 9, "out": tmp_path / "r", "resolution": None})
    assert cfg.seed == 9
    assert cfg.resolution == 65
    assert cfg.command == "solve"


def test_solve_run_writes_reports(tmp_path):
    cfg = ExperimentConfig(
        command="solve", out_dir=tmp_path, seed=0, resolution=65,
        params={"resolutions": [33, 65]},
    )
    verdict = run(cfg)
    assert not verdict.failed
    assert (tmp_path / "solve_convergence.csv").exists()
    assert (tmp_path / "summary.json").exists()
    lines = (tmp_path / "verdict.txt").read_text().splitlines()
    assert all(line.split()[0] in ("PASS", "FAIL", "OBSERVED") for line in lines)


def test_verdict_completeness(tmp_path):
    cfg = ExperimentConfig(
        command="caccioppoli", out_dir=tmp_path, seed=1, resolution=65,
        params={"ensemble": 3},
    )
    verdict = run(cfg)
    lines = (tmp_path / "verdict.txt").read_text().splitlines()
    assert len(lines) == len(verdict.checks)
    names = [line.split()[1].rstrip(":") for line in lines]
    assert len(names) == len(set(names))  # each check appears exactly once


def test_determinism_byte_identical(tmp_path):
    for sub in ("a", "b"):
        cfg = ExperimentConfig(
            command="caccioppoli", out_dir=tmp_path / sub, seed=11, resolution=65,
            params={"ensemble": 4},
        )
        run(cfg)
    a = (tmp_path / "a" / "caccioppoli_reports.csv").read_bytes()
    b = (tmp_path / "b" / "caccioppoli_reports.csv").read_bytes()
    assert a == b


def _pin_to_one_core():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def test_outputs_independent_of_blas_threads(tmp_path):
    # Solver reductions are summed in a fixed order, so the BLAS thread
    # count cannot reach the last digits of any CSV. Ensemble members run in
    # one worker process per usable core from their own child seeds, so the
    # core count cannot either: pinned to one core, they run in-process.
    configs = {"degiorgi": {"ensemble": 4}, "solve": {}, "caccioppoli": {}, "schauder": {"ensemble": 3}}
    commands = []
    for command, params in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({"command": command, "seed": 1, "params": params}))
        commands.append([command, "--config", str(path)])
    variants = [("1", None), ("2", None)]
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
        variants.append(("1", _pin_to_one_core))
    # one child per variant runs every command through main()
    child = (
        "import json, sys\n"
        "from schauderlab.cli_reports import main\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    assert main(args) == 0, args\n"
    )
    outputs = []
    for i, (threads, preexec) in enumerate(variants):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
        out = tmp_path / f"variant{i}"
        argvs = [[*args, "--out", str(out / args[0])] for args in commands]
        done = subprocess.run(
            [sys.executable, "-c", child, json.dumps(argvs)],
            env=env, preexec_fn=preexec, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert Path("degiorgi/degiorgi_traces.csv") in outputs[0]
    for other in outputs[1:]:
        assert outputs[0].keys() == other.keys()
        differing = [str(name) for name in outputs[0] if outputs[0][name] != other[name]]
        assert not differing


# sha256 of each command's outputs at --seed 1 and its defaults: for each
# file of the output tree in sorted order its relative path and bytes, then
# stdout and the exit code. Recorded with these numpy and scipy versions;
# the last bits of a number may differ under others.
_DIGEST_VERSIONS = ("2.4.6", "1.17.1")
_DEFAULT_DIGESTS = {
    "solve": "b4849d16a3d056b945b04bcbf3c9657d895774d955e9b51a5371b341eaaacd7f",
    "caccioppoli": "da8e0ca105c01b93c206619461d7fe3edaa15eec3cf419321e5d8586413f16ac",
    "degiorgi": "77b94d4043e619eb21b53a8463bb7c4f1ced29bdfb6d0bc1ed2ad81c19541110",
    "liouville": "011171a565ba4b1846f481ae5be142a0de6218acd8f261c4d0ca0b15a63ccb62",
    "schauder": "7e7dea7b589872ff67f74767842f566266da65e37e0f183ec799f2b67db534cf",
    "blowup": "85d12b06712b6bfc4de505ad1cceae9d15d92e47f1c3aa4e1d77d57e33de0c9e",
    "bootstrap": "24d1443758d8446e93746db6fd7dde6bd5ee6b0089c07bce45fe8a5d459c702f",
    "mollify": "b4f8cd5e5b888cfc7d3bc13fbf83f8fcc9292216f33d54aa2f414a29b3a7b702",
}


# The same digests at --seed 2, recorded with the same numpy and scipy.
_SEED2_DIGESTS = {
    "solve": "e902faa60f7909c29eb1ecf3167c084f5f29a89bdc56393432eb6376a11a283c",
    "caccioppoli": "e3c3c578993eca4e6d9ab48fb481ef74738d8ccb24b6d9736f6d2cba9aedc0a0",
    "degiorgi": "12b504bfe64bc7842cd9bdec9818885eadd8341d3e35d1d6f27f7f72ab20551a",
    "liouville": "800b0928df3fca3943dca6db284a88247ec990ff2a5aa83f4576d00586c47a67",
    "schauder": "cffe8171650ef18ab94642f17ea9629326b618c42eafc81fa9960a5aac78a92d",
    "blowup": "473755c98b0b982ae662a54b10ccb11e270c0fadf720360f8c05b424576e80ea",
    "bootstrap": "14e017eb3bb5545209df17f7d1ae8013a06194276bb2ae5167e51f545dff7cee",
    "mollify": "fd204b7ac3aa975afdc4642722c521840c41c7d2ddb766f7b5f9dc023bcc80e6",
}


@pytest.mark.parametrize("seed", [1, 2])
def test_outputs_match_recorded_digests(tmp_path, seed):
    versions = (np.__version__, scipy.__version__)
    assert versions == _DIGEST_VERSIONS, (
        f"digests recorded with numpy {_DIGEST_VERSIONS[0]} and scipy {_DIGEST_VERSIONS[1]}, "
        f"running numpy {versions[0]} and scipy {versions[1]}"
    )
    recorded = {1: _DEFAULT_DIGESTS, 2: _SEED2_DIGESTS}[seed]
    moved = []
    for command in COMMANDS:
        out, stdout = tmp_path / command, io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([command, "--seed", str(seed), "--out", str(out)])
        digest = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest.update(path.relative_to(out).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
        digest.update(stdout.getvalue().encode() + b"\0" + str(code).encode())
        if digest.hexdigest() != recorded[command]:
            moved.append(command)
    assert not moved


@pytest.mark.parametrize("command, kwargs", [("caccioppoli", {}), ("schauder", {"rough_alpha": 0.6})])
def test_member_k_is_built_from_child_seed(tmp_path, command, kwargs):
    # member k of a run at --seed s is random_problem on default_rng([s, k])
    out = tmp_path / command
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--seed", "1", "--out", str(out)]) == 0
    with open(out / f"{command}_reports.csv", newline="") as table:
        fingerprints = [row["fingerprint"] for row in csv.DictReader(table)]
    grid = make_grid(2, 1.0, ExperimentConfig(command).resolution)
    assert fingerprints == [
        generators.random_problem(grid, np.random.default_rng([1, k]), **kwargs).fingerprint()
        for k in range(SPECS[command].params["ensemble"])
    ]


def test_liouville_counterexample_verdict(tmp_path):
    # m = 129 keeps the coarsest scale inside the h^2 regime of the gate
    cfg = ExperimentConfig(
        command="liouville", out_dir=tmp_path, seed=0, resolution=129,
        params={"generator": "counterexample", "gamma": 10.0},
    )
    verdict = run(cfg)
    assert not verdict.failed
    statuses = {name: status for status, name, _ in verdict.checks}
    assert statuses["harmonic_residual_gate"] == "PASS"
    assert statuses["superpolynomial_growth_rejected"] == "PASS"
    assert statuses["degree_undetected"] == "PASS"


def test_summary_writes_non_finite_as_null(tmp_path, monkeypatch):
    def runner(cfg, verdict):
        verdict.observed("probe", "non-finite summary")
        summary = {"slope_k1": float("nan"), "min_fit": float("inf"), "nested": [{"x": -float("inf")}, 1.5]}
        return summary, {"liouville_scan.csv": "order,scale,energy,slope,at_floor\r\n"}

    monkeypatch.setitem(SPECS, "solve", dataclasses.replace(SPECS["solve"], runner=runner))
    run(ExperimentConfig(command="solve", out_dir=tmp_path))

    def reject(name):
        raise ValueError(name)

    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)["summary"]
    assert summary == {"slope_k1": None, "min_fit": None, "nested": [{"x": None}, 1.5]}


def test_main_exit_codes(tmp_path, capsys):
    rc = main(["solve", "--out", str(tmp_path / "ok"), "--resolution", "65"])
    assert rc == 0
    rc = main(["degiorgi", "--out", str(tmp_path / "bad"), "--resolution", "65"])
    assert rc == 2  # the 4h ladder is unresolvable at m = 65; rejected before any solve
    err = capsys.readouterr().err
    assert "4h" in err
    assert not (tmp_path / "bad").exists()
    # p = 1 and q = 2 sit on the admissibility boundary, where the default
    # tau would divide by zero; they are rejected before any solve
    for key, value, rule in (("p", 1, "p > n/2"), ("q", 2, "q > n")):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"command": "degiorgi", "params": {key: value}}))
        assert main(["degiorgi", "--config", str(path), "--out", str(tmp_path / key)]) == 2
        assert rule in capsys.readouterr().err
        assert not (tmp_path / key).exists()
    # too coarse a resolution, a kernel that leaves the inner box and a ball
    # that leaves the box are rejected up front and leave no output directory
    rejected = [
        *({"command": c, "resolution": 9} for c in ("caccioppoli", "schauder", "blowup", "bootstrap", "mollify")),
        {"command": "liouville", "resolution": 3},
        {"command": "mollify", "params": {"eps_schedule": [0.9, 0.5]}},
        {"command": "caccioppoli", "params": {"ensemble": 2, "r": 0.9, "R": 0.95}},
        {"command": "degiorgi", "params": {"ensemble": 2, "R": 5}},
    ]
    for i, spec in enumerate(rejected):
        path, out = tmp_path / f"mid{i}.json", tmp_path / f"mid{i}"
        path.write_text(json.dumps(spec))
        assert main([spec["command"], "--config", str(path), "--out", str(out)]) == 2, spec
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists(), spec


@pytest.mark.parametrize("command, params, least", [
    ("caccioppoli", {}, 19),
    ("liouville", {}, 5),
    ("schauder", {}, 13),
    ("blowup", {}, 15),
    ("bootstrap", {}, 43),
    ("bootstrap", {"k": 3}, 69),
    ("mollify", {}, 51),
    ("mollify", {"eps_schedule": [0.55, 0.45]}, 11),
])
def test_smallest_resolution(tmp_path, capsys, command, params, least):
    # one step below the smallest working resolution is a configuration
    # error that names the key, before any solve or output; at it, the
    # command reaches a verdict
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": command, "seed": 1, "params": params}))
    coarse, fine = tmp_path / "coarse", tmp_path / "fine"
    assert main([command, "--config", str(path), "--resolution", str(least - 2), "--out", str(coarse)]) == 2
    assert f"'resolution' must be at least {least}" in capsys.readouterr().err
    assert not coarse.exists()
    assert main([command, "--config", str(path), "--resolution", str(least), "--out", str(fine)]) in (0, 1)
    assert (fine / "verdict.txt").exists()


def test_solve_harmonic_check_runs_at_resolution(tmp_path, monkeypatch):
    sizes = []
    solve = cli_reports.solve_dirichlet

    def recording_solve(problem):
        sizes.append(problem.grid.m)
        return solve(problem)

    monkeypatch.setattr(cli_reports, "solve_dirichlet", recording_solve)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "solve", "params": {"resolutions": [33, 65]}}))
    assert main(["solve", "--config", str(path), "--resolution", "33", "--out", str(tmp_path / "r")]) == 0
    assert sizes == [33, 65, 33]
    assert json.loads((tmp_path / "r" / "summary.json").read_text())["resolution"] == 33


def test_lowest_failing_member_error_surfaces(tmp_path, capsys, monkeypatch):
    # Members 1 and 3 fail, and member 1 only after a delay, so that with two
    # cores member 3 fails first; member 1's error must surface, with the
    # exit code a serial loop gave it.
    grid = make_grid(2, 1.0, 129)
    failing = {generators.sup_bound_problem(grid, np.random.default_rng([1, k])).fingerprint(): k for k in (1, 3)}
    solve = cli_reports.solve_dirichlet

    def flaky_solve(problem):
        k = failing.get(problem.fingerprint())
        if k is None:
            return solve(problem)
        if k == 1:
            time.sleep(0.2)
        raise SolverStagnationError(f"member {k} stagnated")

    monkeypatch.setattr(cli_reports, "solve_dirichlet", flaky_solve)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "degiorgi", "seed": 1, "params": {"ensemble": 4}}))
    assert main(["degiorgi", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "member 1 stagnated" in err and "member 3" not in err


_needs_two_cores = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs two usable cores"
)


@_needs_two_cores
def test_members_run_outside_the_parent():
    assert os.getpid() not in cli_reports._members(lambda k: os.getpid(), 4)
    assert not multiprocessing.active_children()


@_needs_two_cores
def test_member_error_stops_the_running_members():
    # member 0 fails at once; the members already handed to a worker must
    # not sleep out their second before the error surfaces
    def task(k):
        if k == 0:
            raise SolverStagnationError("member 0 stagnated")
        time.sleep(1.0)
        return k

    start = time.perf_counter()
    with pytest.raises(SolverStagnationError, match="member 0"):
        cli_reports._members(task, 12)
    assert time.perf_counter() - start < 1.0
    assert not multiprocessing.active_children()


@_needs_two_cores
def test_member_killed_from_outside_raises_promptly():
    # a worker killed by a signal (as the OOM killer would) loses its member;
    # the run must raise rather than wait for it forever
    def task(k):
        if k == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.05)
        return k

    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="worker process died"):
        cli_reports._members(task, 6)
    assert time.perf_counter() - start < 2.0
    assert not multiprocessing.active_children()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_members_run_in_process_on_one_core():
    child = (
        "import os\n"
        "from schauderlab.cli_reports import _members\n"
        "assert set(_members(lambda k: os.getpid(), 4)) == {os.getpid()}\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", child], env=env, preexec_fn=_pin_to_one_core,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("error, attributes", [
    (SolverStagnationError("member 1 stagnated", {"iterations": 7, "residual": 0.5}),
     {"diagnostics": {"iterations": 7, "residual": 0.5}}),
    (NotEllipticError("member 1 not elliptic", node=(3, 4), eigenvalue=-0.25),
     {"node": (3, 4), "eigenvalue": -0.25}),
])
def test_member_error_keeps_its_type_and_attributes(error, attributes):
    def task(k):
        if k == 1:
            raise error
        return k

    assert cli_reports._members(lambda k: 2 * k, 3) == [0, 2, 4]
    assert not multiprocessing.active_children()
    with pytest.raises(type(error), match=str(error)) as caught:
        cli_reports._members(task, 3)
    assert {name: getattr(caught.value, name) for name in attributes} == attributes
    assert not multiprocessing.active_children()
    assert cli_reports._TASK is None


def _peak_growth_per_member(command, tmp_path) -> float:
    """Traced peak of a 12-member run less that of a 4-member run, per extra
    member, at m = 129. tracemalloc sees this process only: with worker
    processes, what the parent keeps per member, not a member's own
    temporaries; pinned to one core, both."""
    peaks = {}
    for size in (4, 12):
        cfg = ExperimentConfig(command=command, out_dir=tmp_path / str(size), seed=1, params={"ensemble": size})
        tracemalloc.start()
        try:
            run(cfg)
            peaks[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return (peaks[12] - peaks[4]) / 8


def test_degiorgi_retains_little_per_member(tmp_path):
    # The parent keeps (sup, denom, u, data norm) of each pass-1 member; u
    # is 0.13 MB at m = 129, and the growth reads 0.10-0.15 MB, with two
    # worker processes or in-process. Keeping f and F as well costs about
    # 0.56 MB, whole solutions with A and g about 1.3 MB.
    assert _peak_growth_per_member("degiorgi", tmp_path) <= 0.25e6


def test_caccioppoli_retains_little_per_member(tmp_path):
    # The parent keeps each member's report and certificate, a few kB (the
    # growth reads 1-2 kB); keeping its solution costs about 1.25 MB, its u
    # alone 0.13 MB.
    assert _peak_growth_per_member("caccioppoli", tmp_path) <= 0.1e6


def test_degiorgi_inadmissible_exponent_exits_2_before_writing(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "degiorgi", "params": {"p": 0.8}}))
    assert main(["degiorgi", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    assert "p > n/2" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_main_config_mismatch(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "solve"}))
    rc = main(["blowup", "--config", str(path)])
    assert rc == 2


def test_misspelt_param_key_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "caccioppoli", "params": {"ensembel": 4}}))
    rc = main(["caccioppoli", "--config", str(path), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "ensembel" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    with pytest.raises(ValueError):
        ExperimentConfig(command="solve", out_dir=tmp_path, params={"resolution": [33]})


def test_misspelt_liouville_generator_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "liouville", "params": {"generator": "sadle"}}))
    rc = main(["liouville", "--config", str(path), "--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "sadle" in err and "counterexample" in err
    assert not (tmp_path / "r").exists()


def test_counterexample_with_non_harmonic_parameters_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "command": "liouville", "resolution": 33,
        "params": {"generator": "counterexample", "a": [1.0, 0.0], "b": [0.0, 2.0]},
    }))
    rc = main(["liouville", "--config", str(path), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "|a|" in capsys.readouterr().err


def test_config_without_out_writes_under_command_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "solve", "params": {"resolutions": [33, 65]}}))
    assert main(["solve", "--config", str(path)]) == 0
    assert (tmp_path / "reports" / "solve" / "solve_convergence.csv").exists()
    assert not (tmp_path / "reports" / "solve_convergence.csv").exists()


@pytest.mark.parametrize("command", ["caccioppoli", "schauder"])
def test_rerun_overwrites_reports(tmp_path, command):
    cfg = ExperimentConfig(
        command=command, out_dir=tmp_path, seed=3, resolution=65, params={"ensemble": 2},
    )
    snapshots = []
    for _ in range(2):
        run(cfg)
        snapshots.append({p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())})
    assert f"{command}_reports.csv" in snapshots[0]
    assert snapshots[0] == snapshots[1]


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "solve", "sede": 3}))
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "sede" in capsys.readouterr().err
    path.write_text(json.dumps({"command": "solve", "params": []}))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    path.write_text(json.dumps([]))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("spec, key", [
    ({"command": "solve", "seed": None}, "seed"),
    ({"command": "solve", "resolution": "65"}, "resolution"),
    ({"command": "caccioppoli", "params": {"ensemble": None}}, "ensemble"),
    ({"command": "caccioppoli", "params": {"r": True}}, "r"),
    ({"command": "degiorgi", "params": {"ensemble": 0}}, "ensemble"),
    ({"command": "schauder", "params": {"ensemble": 0}}, "ensemble"),
    ({"command": "degiorgi", "params": {"R": 5}}, "R"),  # the ball leaves the box
    ({"command": "degiorgi", "params": {"k_max": -1}}, "k_max"),
    ({"command": "bootstrap", "params": {"k": 0}}, "k"),
    ({"command": "blowup", "params": {"steps": 0}}, "steps"),
    ({"command": "solve", "params": {"resolutions": [64]}}, "resolutions"),
    ({"command": "caccioppoli", "params": {"r": 0.9, "R": 0.5}}, "r"),
    ({"command": "mollify", "params": {"eps_schedule": []}}, "eps_schedule"),
    ({"command": "mollify", "params": {"eps_schedule": [0.1, 0.2]}}, "eps_schedule"),
    ({"command": "liouville", "resolution": 64}, "resolution"),
    ({"command": "degiorgi", "params": {"r": 0.5, "R": 0.5}}, "r"),
    ({"command": "schauder", "params": {"s": 2.5}}, "s"),
    ({"command": "blowup", "params": {"alpha": 1.0}}, "alpha"),
    ({"command": "bootstrap", "params": {"alpha": 0}}, "alpha"),
    ({"command": "liouville", "params": {"scales": [-1, 0.5]}}, "scales"),
    # the first kernel leaves the inner box's margin, and an eps falls below 2h
    ({"command": "mollify", "params": {"eps_schedule": [0.3, 0.2, 0.19]}}, "eps_schedule"),
    ({"command": "mollify", "resolution": 11, "params": {"eps_schedule": [0.2, 0.1]}}, "eps_schedule"),
    # a repeated radius is a zero log-step in the window slopes
    ({"command": "liouville", "resolution": 33, "params": {"scales": [1, 1, 2, 4]}}, "scales"),
    ({"command": "caccioppoli", "seed": 2.5}, "seed"),  # not run as seed 2
    ({"command": "caccioppoli", "seed": -1}, "seed"),  # not left to the runner's generator
    # not run as gamma = 1.0, not a float() error, not a floor() overflow, not a matmul shape error,
    # not a field of infinities
    ({"command": "liouville", "resolution": 33, "params": {"gamma": True}}, "gamma"),
    ({"command": "liouville", "resolution": 33, "params": {"gamma": "x"}}, "gamma"),
    ({"command": "liouville", "resolution": 33, "params": {"gamma": float("inf")}}, "gamma"),
    ({"command": "liouville", "resolution": 33, "params": {"generator": "counterexample", "a": [1, 0, 0]}}, "a"),
    ({"command": "liouville", "resolution": 33, "params": {"generator": "counterexample", "b": [0, True]}}, "b"),
    ({"command": "liouville", "resolution": 33,
      "params": {"generator": "counterexample", "a": [float("inf"), 0], "b": [0, float("inf")]}}, "a"),
    ({"command": "liouville", "resolution": 33, "params": {"scales": [1, 2, 4, float("inf")]}}, "scales"),
])
def test_wrong_typed_or_empty_config_exits_2_before_writing(tmp_path, capsys, spec, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(spec))
    rc = main([spec["command"], "--config", str(path), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_param_keys_are_the_keys_each_runner_reads():
    # a runner reads its params itself, through its command's check, or
    # through a module helper that either hands the config to
    for command, spec in SPECS.items():
        source = "".join(inspect.getsource(f) for f in (spec.runner, spec.check) if f is not None)
        helpers = set(re.findall(r"\b(_\w+)\(cfg\)", source))
        source += "".join(inspect.getsource(getattr(cli_reports, name)) for name in helpers)
        read = set(re.findall(r'cfg\.params\["(\w+)"\]', source))
        assert read == set(spec.params), command


def test_one_log_slope_and_one_shell_scan_in_src():
    # every fitted exponent goes through log_slope and every shell-maximum
    # ladder through shell_peaks; no module keeps a copy of either. Nor of
    # the exponent hypothesis p > n/2, q > n, the radius pair 0 < r < R, the
    # right-hand side ||u||_2 + ||f||_p + ||F||_q or the Field and VecField
    # validation.
    src = "".join(p.read_text() for p in sorted(Path(norm_engine.__file__).parent.glob("*.py")))
    for needle, owner in (
        ("polyfit", norm_engine.log_slope),
        ("(dist > lo) & (dist <= hi)", norm_engine.shell_peaks),
        ("need p > n/2", elliptic_solver.require_admissible),
        ("not 0 < r < R", domain_grid.check_radii),
        ('"F_lq"', caccioppoli.rhs_terms),
        ("at valid nodes", field_calculus._frozen),
    ):
        assert src.count(needle) == inspect.getsource(owner).count(needle) == 1, needle
    # every Holder scan enters through _holder_scan_mask, the one entry
    # perfbench traces: _holder_scan_mask( occurs at its definition and in
    # its two callers
    needle = "_holder_scan_mask("
    assert src.count(needle) == 3
    for owner in (norm_engine._holder_scan_mask, norm_engine._holder_norm, schauder_harness.blowup_sequence):
        assert inspect.getsource(owner).count(needle) == 1, owner.__name__


def test_one_sparse_product_loop_in_src():
    # every sparse product of a solve runs through _apply, the one place
    # that calls a kernel; the only other compiled kernel call is _dense's
    # dia_matvecs, scipy's dia_matrix @ I
    src = "".join(p.read_text() for p in sorted(Path(norm_engine.__file__).parent.glob("*.py")))
    needle = "kernel("
    assert src.count(needle) == inspect.getsource(elliptic_solver._apply).count(needle) == 1
    assert re.findall(r"_sparsetools\.(\w+)\(", src) == ["dia_matvecs"]
    assert "_sparsetools.dia_matvecs(" in inspect.getsource(elliptic_solver._dense)


def test_verdict_failure_sets_exit_flag():
    verdict = Verdict(("alpha", "beta"))
    verdict.ok("alpha", True, "fine")
    verdict.ok("beta", False, "broken")
    verdict.observed("gamma", "0.5")
    assert verdict.failed


def test_verdict_rejects_an_undeclared_check(tmp_path, monkeypatch):
    verdict = Verdict(("alpha",))
    with pytest.raises(LookupError, match="beta"):
        verdict.ok("beta", True, "fine")
    assert verdict.checks == []

    def runner(cfg, verdict):
        verdict.ok("undeclared", True, "fine")
        return {}, {}

    monkeypatch.setitem(SPECS, "solve", dataclasses.replace(SPECS["solve"], runner=runner))
    with pytest.raises(LookupError, match="undeclared"):
        run(ExperimentConfig(command="solve", out_dir=tmp_path / "r"))
    assert not (tmp_path / "r").exists()


def test_declared_checks_are_the_names_each_runner_records():
    for command, spec in SPECS.items():
        recorded = re.findall(r'verdict\.ok\(\s*"(\w+)"', inspect.getsource(spec.runner))
        assert set(recorded) == set(spec.checks), command
