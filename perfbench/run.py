"""Benchmark command for schauderlab. Run it from the root of a checkout:

    python3 perfbench/run.py --workload solve_ladder --seed 1 --seconds 30 --trace 0

Workloads and metrics are declared in BENCHMARK.json and README.md beside
this file. Every workload pass runs in a fresh child process (worker.py),
with BLAS and OpenMP threads capped at the number of usable cores.

--trace 0  passes until --seconds have elapsed, then set-up-only children
           until there are SETUP_SAMPLES set-up timings; prints the
           end-to-end metrics as medians over the children.
--trace 1  one untraced pass and one traced pass; prints the per-layer
           metrics of the traced pass, the phase times of the untraced
           one, and the tracing overhead (traced minus untraced wall_s).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH))

from spans import PER_LAYER  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Outside-in time of each group of ops, from an untraced pass; a phase a
# workload does not run reads 0.
PHASES = (
    ("solve_2d_s", "solve_2d"),
    ("solve_3d_s", "solve_3d"),
    ("holder_exact_s", "holder_exact"),
    ("holder_large_s", "holder_large"),
    ("blowup_s", "blowup"),
)

SETUP_SAMPLES = 5
# Every run ends within this many seconds, child processes included.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }


def per_layer_units() -> list:
    return list(PER_LAYER) + [(name, "s") for name, _ in PHASES]


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    return env


class Runner:
    """Starts worker passes and keeps every run inside DEADLINE_S."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload, self.seed, self.size = workload, seed, size
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = _child_env()

    def child(self, mode: str = "pass", trace_out: Path | None = None) -> dict:
        argv = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--size", self.size,
            "--mode", mode, "--spawned-at", repr(time.monotonic()),
        ]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before a {mode} child of {self.workload}")
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(
                f"{mode} child of {self.workload} passed the {DEADLINE_S:.0f} s deadline"
            ) from exc
        if proc.returncode != 0:
            raise BenchError(
                f"{mode} child of {self.workload} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _phases(result: dict) -> dict:
    return {name: result["phases"].get(key, 0.0) for name, key in PHASES}


def _provenance(child: dict, env: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    revision = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        revision = proc.stdout.strip() or "unavailable"
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest()[:16],
        **child["provenance"],
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "thread_caps": {k: v for k, v in env.items() if k.endswith("_NUM_THREADS")},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple:
    """Run the workload; returns (result line, report lines)."""
    runner = Runner(workload, seed, size)
    OUT.mkdir(exist_ok=True)
    passes, setups = [], []
    lines = []
    if trace:
        untraced = runner.child()
        trace_path = OUT / f"trace-{workload}-{seed}.json"
        traced = runner.child(trace_out=trace_path)
        passes = [untraced, traced]
        metrics = {**traced["layers"], **_phases(untraced)}
        units = per_layer_units()
        lines.append(
            f"tracing overhead {traced['wall_s'] - untraced['wall_s']:.4f} s "
            f"(traced wall_s {traced['wall_s']:.4f} s, untraced {untraced['wall_s']:.4f} s)"
        )
        lines.append(
            f"holder scans above PAIR_SCAN_CUTOFF {traced['holder_scans_above_cutoff']}, "
            f"inexact scans {traced['layers']['norm_engine.holder.inexact']}; "
            f"trace written to {trace_path.relative_to(ROOT)}"
        )
    else:
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(runner.child())
        while len(passes) + len(setups) < SETUP_SAMPLES:
            setups.append(runner.child("setup"))
        setup_times = [r["setup_s"] for r in passes + setups]
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in passes),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        }
        units = list(END_TO_END)
        lines.append(f"{len(passes)} timed passes, {len(setup_times)} set-up samples")
        for name, key in PHASES:
            values = [r["phases"][key] for r in passes if key in r["phases"]]
            if values:
                lines.append(f"{name} {statistics.median(values):.4f} s (median of {len(values)})")

    attempted = sum(r["attempted"] for r in passes)
    failed = sum(len(r["failures"]) for r in passes)
    methods = {}
    for r in passes:
        for method, count in r["solve_methods"].items():
            methods[method] = methods.get(method, 0) + count
    lines.append(f"op_fail_ratio {failed / attempted:.4f} ({failed} of {attempted} ops failed)")
    for r in passes:
        for op, errors in r["failures"].items():
            lines.extend(f"FAILED {op}: {e}" for e in errors)
    lines.append("provenance " + json.dumps({**_provenance(passes[0], runner.env), "solve_methods": methods}))
    for name, unit in units:
        lines.append(f"metric {name} = {metrics[name]!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "schauderlab" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src' / 'schauderlab'}", file=sys.stderr)
        return 2
    declared = _declared()
    if declared["end_to_end"] != list(END_TO_END) or declared["per_layer"] != per_layer_units():
        print("BENCHMARK.json metrics differ from the ones this command computes", file=sys.stderr)
        return 2
    if args.workload not in declared["workloads"]:
        print(f"unknown workload {args.workload!r}; known: {declared['workloads']}", file=sys.stderr)
        return 2

    compileall.compile_dir(ROOT / "src", quiet=1)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
