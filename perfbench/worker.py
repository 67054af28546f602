"""One workload pass in a fresh process; started by run.py.

Set-up (interpreter start, imports, input generation) ends when the inputs
exist. The timed section then runs every op in order. Peak RSS is read at
its end, before the correctness gates run. The pass prints one JSON object
as the last line of its standard output.

    python3 perfbench/worker.py --workload W --seed N --size full \
        --mode pass --spawned-at T [--trace-out PATH]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _provenance() -> dict:
    import numpy
    import scipy

    try:
        import pyamg  # noqa: F401

        pyamg_imports = True
    except ImportError:
        pyamg_imports = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyamg_imports": pyamg_imports,
    }


def timed(ops) -> tuple:
    """The timed section: (outputs, seconds per phase, total seconds).

    An op that raises yields the exception in place of its output.
    """
    outputs, phases = [], {}
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            outputs.append(op.run())
        except Exception as exc:  # a failing op is counted and the pass goes on
            outputs.append(exc)
            traceback.print_exc(file=sys.stderr)
        phases[op.phase] = phases.get(op.phase, 0.0) + time.perf_counter() - t0
    return outputs, phases, time.perf_counter() - start


def gate(ops, outputs) -> tuple:
    """Correctness gates: ({failed op name: messages}, {solve method: count})."""
    failures, methods = {}, {}
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            failures[op.name] = [f"{type(out).__name__}: {out}"]
            continue
        diagnostics = getattr(out, "diagnostics", None)
        if diagnostics is not None:
            methods[diagnostics["method"]] = methods.get(diagnostics["method"], 0) + 1
        try:
            errors = op.check(out)
        except Exception as exc:
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        if errors:
            failures[op.name] = errors
    return failures, methods


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("pass", "setup"), default="pass")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True

    import schauderlab
    import workloads

    src = Path(schauderlab.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"schauderlab imported from {src}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed, args.size, OUT_DIR / "cli" / args.workload)
    ready = time.monotonic()
    result = {"setup_s": ready - args.spawned_at, "provenance": _provenance()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    outputs, phases, wall = timed(ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False
    failures, methods = gate(ops, outputs)

    result.update(
        wall_s=wall, phases=phases, peak_rss_mb=peak_rss_mb,
        attempted=len(ops), failures=failures, solve_methods=methods,
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["holder_scans_above_cutoff"] = tracer.scans_above_cutoff(
            schauderlab.norm_engine.PAIR_SCAN_CUTOFF
        )
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
