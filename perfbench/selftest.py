"""Fast self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, emits exactly the metrics
BENCHMARK.json declares, each with its unit; that a corrupted solution, a
corrupted Holder value and a FAIL verdict line each count as one failed
operation; and that the command fails without a result in a directory that
holds only BENCHMARK.json and this directory.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from schauderlab import Field, cli_reports  # noqa: E402


def check_metrics() -> None:
    assert spans.CLI_COMMANDS == cli_reports.COMMANDS, "spans.CLI_COMMANDS is out of date"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = run.measure(workload, 1, 0, trace, size="tiny")
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
            declared = [(m["name"], m["unit"]) for m in spec[key]]
            emitted = [(name, m["unit"]) for name, m in result["metrics"].items()]
            assert emitted == declared, (workload, trace, emitted)
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
            print(f"ok   {workload} trace={int(trace)}: {len(emitted)} metrics with units")


def _failed_ops(ops, corrupt: dict) -> dict:
    """Run ops through the worker's timed section and gates, corrupting the
    outputs of the ops named in ``corrupt``."""
    for op in ops:
        if op.name in corrupt:
            op.run = lambda orig=op.run, f=corrupt[op.name]: f(orig())
    outputs, _phases, _wall = worker.timed(ops)
    assert not any(isinstance(out, Exception) for out in outputs), outputs
    failures, _methods = worker.gate(ops, outputs)
    return {name: " ".join(errors) for name, errors in failures.items()}


def check_corruption() -> None:
    ops = workloads.build("solve_ladder", 1, "tiny")

    def bumped(index):
        def corrupt(sol):
            values = sol.u.values.copy()
            values[index] += 1e-6
            return replace(sol, u=Field(sol.grid, values))

        return corrupt

    failed = _failed_ops(ops, {ops[0].name: bumped((8, 8)), ops[2].name: bumped((0, 5))})
    assert sorted(failed) == sorted([ops[0].name, ops[2].name]), failed
    assert "residual" in failed[ops[0].name] and "boundary" in failed[ops[2].name], failed
    print("ok   corrupted solutions count as failed solves")

    ops = workloads.build("holder_ladder", 1, "tiny")

    def nudge(value):
        return replace(value, value=value.value * (1 + 1e-9))

    exact = next(op.name for op in ops if op.phase == "holder_exact")
    large = next(op.name for op in ops if op.phase == "holder_large")
    failed = _failed_ops(ops, {exact: nudge, large: nudge})
    assert sorted(failed) == sorted([exact, large]), failed
    assert "brute force" in failed[exact] and "realizes" in failed[large], failed
    print("ok   corrupted Holder values count as failed scans")

    out = run.OUT / "selftest-cli"
    op = workloads.Op(
        "cli_schauder_m33", "cli",
        lambda: workloads.run_cli(["schauder", "--out", str(out), "--resolution", "33"]),
        workloads.check_cli,
    )
    failed = _failed_ops([op], {})
    assert list(failed) == [op.name] and "FAIL singular_family_threshold_exponent" in failed[op.name], failed
    shutil.rmtree(out, ignore_errors=True)
    print("ok   a FAIL verdict line counts as a failed CLI run")


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "solve_ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print(f"ok   without the package source the command exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    check_corruption()
    check_bare_directory()
    check_metrics()
    print("selftest passed")
