"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the package's entry points with wrappers that
record one span each: name, start, end and the span that was open when it
started. A function is replaced under every module attribute that refers to
it, so names imported with ``from .module import name`` are traced at each
point of use. The wrappers pass straight through while the tracer is
inactive, so correctness checks run untraced.

``layer_metrics()`` turns the spans into the per-layer metrics. ``.s`` is the
inclusive time of the outermost spans of a layer (a layer calling itself is
not counted twice); ``.self_s`` subtracts the time of child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

# Solve methods named in DiscreteSolution.diagnostics["method"]; any other
# value is counted under "other".
SOLVE_METHODS = ("direct", "cg", "amg-cg", "ilu-gmres")

# Whole modules whose every public function is one span per call.
WHOLE_MODULES = ("degiorgi", "caccioppoli", "liouville_lab", "generators")

# (module, function, layer) for single entry points. The Holder span sits on
# the scan every Holder caller goes through: holder_seminorm,
# holder_seminorm_vec, ck_alpha_norm and blowup_sequence.
ENTRY_POINTS = (
    ("elliptic_solver", "solve_dirichlet", "elliptic_solver.solve"),
    ("elliptic_solver", "assemble", "elliptic_solver.assemble"),
    ("norm_engine", "_holder_scan_mask", "norm_engine.holder"),
    ("norm_engine", "lp_norm", "norm_engine.lp_norm"),
    ("norm_engine", "derivative_field", "norm_engine.derivative"),
    ("field_calculus", "mollify", "field_calculus.mollify"),
    ("field_calculus", "gradient", "field_calculus.gradient"),
    ("schauder_harness", "blowup_sequence", "schauder_harness.blowup"),
    ("schauder_harness", "bootstrap_ckalpha", "schauder_harness.bootstrap"),
    ("schauder_harness", "regularize_approximate", "schauder_harness.regularize"),
    ("schauder_harness", "schauder_ratio", "schauder_harness.schauder_ratio"),
    ("cli_reports", "run", "cli_reports.run"),
)

# scipy calls made by solve_dirichlet through ``scipy.sparse.linalg``.
SCIPY_CALLS = (
    ("spsolve", "elliptic_solver.factorize"),
    ("splu", "elliptic_solver.factorize"),
    ("spilu", "elliptic_solver.factorize"),
    ("cg", "elliptic_solver.krylov"),
    ("gmres", "elliptic_solver.krylov"),
)

# cli_reports.COMMANDS, repeated so that run.py can list the metrics without
# importing the package; the self-test checks that the two agree.
CLI_COMMANDS = (
    "solve", "caccioppoli", "degiorgi", "liouville",
    "schauder", "blowup", "bootstrap", "mollify",
)

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    [
        ("elliptic_solver.solve.calls", "count"),
        ("elliptic_solver.solve.s", "s"),
        ("elliptic_solver.assemble.s", "s"),
        ("elliptic_solver.factorize.s", "s"),
        ("elliptic_solver.krylov.s", "s"),
        ("elliptic_solver.iterations", "count"),
        ("elliptic_solver.unknowns", "count"),
        ("elliptic_solver.max_residual", "ratio"),
    ]
    + [(f"elliptic_solver.method.{m}", "count") for m in SOLVE_METHODS + ("other",)]
    + [
        ("norm_engine.holder.calls", "count"),
        ("norm_engine.holder.s", "s"),
        ("norm_engine.holder.nodes", "count"),
        ("norm_engine.holder.pairs_exact", "count"),
        ("norm_engine.holder.inexact", "count"),
        ("norm_engine.lp_norm.s", "s"),
        ("norm_engine.derivative.self_s", "s"),
        ("field_calculus.mollify.s", "s"),
        ("field_calculus.gradient.s", "s"),
        ("schauder_harness.blowup.self_s", "s"),
        ("schauder_harness.bootstrap.self_s", "s"),
        ("schauder_harness.regularize.self_s", "s"),
        ("schauder_harness.schauder_ratio.self_s", "s"),
        ("degiorgi.self_s", "s"),
        ("caccioppoli.self_s", "s"),
        ("liouville_lab.self_s", "s"),
        ("generators.s", "s"),
    ]
    + [(f"cli_reports.run.{c}.s", "s") for c in CLI_COMMANDS]
)


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    outermost: bool
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_attrs(args, kwargs, out) -> dict:
    d = out.diagnostics
    return {k: d[k] for k in ("method", "iterations", "residual", "unknowns")}


def _holder_attrs(args, kwargs, out) -> dict:
    value, _pair, mode = out
    return {"nodes": int(args[1].sum()), "mode": mode}


def _run_name(args, kwargs) -> str:
    return f"cli_reports.run.{args[0].command}"


_ATTRS = {"elliptic_solver.solve": _solve_attrs, "norm_engine.holder": _holder_attrs}


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list = []
        self._stack: list = []

    def _wrap(self, fn, layer: str, name=None):
        """``name`` is the span name, or a function of the call's arguments
        giving it; the layer's name by default."""
        attrs = _ATTRS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(
                id=len(self.spans),
                name=name(args, kwargs) if callable(name) else name or layer,
                layer=layer,
                parent=parent.id if parent else None,
                outermost=all(s.layer != layer for s in self._stack),
                start=time.perf_counter(),
            )
            self.spans.append(span)
            self._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if attrs is not None:
                span.attrs = attrs(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every entry point under each module attribute naming it."""
        import scipy.sparse.linalg as spla

        targets = []
        for mod_name in WHOLE_MODULES:
            mod = importlib.import_module(f"schauderlab.{mod_name}")
            for fn_name, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not fn_name.startswith("_"):
                    targets.append((fn, self._wrap(fn, mod_name, f"{mod_name}.{fn_name}")))
        for mod_name, fn_name, layer in ENTRY_POINTS:
            fn = getattr(importlib.import_module(f"schauderlab.{mod_name}"), fn_name)
            targets.append((fn, self._wrap(fn, layer, _run_name if fn_name == "run" else None)))
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "schauderlab"]
        for original, wrapper in targets:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        for fn_name, layer in SCIPY_CALLS:
            setattr(spla, fn_name, self._wrap(getattr(spla, fn_name), layer, f"scipy.{fn_name}"))

    def _inclusive(self, layer: str) -> float:
        return sum(s.duration for s in self.spans if s.layer == layer and s.outermost)

    def _self(self, layer: str) -> float:
        return sum(s.duration - s.child_s for s in self.spans if s.layer == layer)

    def layer_metrics(self) -> dict:
        solves = [s for s in self.spans if s.layer == "elliptic_solver.solve"]
        solved = [s.attrs for s in solves if s.attrs]
        scans = [s.attrs for s in self.spans if s.layer == "norm_engine.holder" and s.attrs]
        methods = [a["method"] for a in solved]
        out = {
            "elliptic_solver.solve.calls": len(solves),
            "elliptic_solver.solve.s": self._inclusive("elliptic_solver.solve"),
            "elliptic_solver.assemble.s": self._inclusive("elliptic_solver.assemble"),
            "elliptic_solver.factorize.s": self._inclusive("elliptic_solver.factorize"),
            "elliptic_solver.krylov.s": self._inclusive("elliptic_solver.krylov"),
            "elliptic_solver.iterations": sum(a["iterations"] for a in solved),
            "elliptic_solver.unknowns": sum(a["unknowns"] for a in solved),
            "elliptic_solver.max_residual": max((a["residual"] for a in solved), default=0.0),
        }
        for m in SOLVE_METHODS:
            out[f"elliptic_solver.method.{m}"] = methods.count(m)
        out["elliptic_solver.method.other"] = sum(m not in SOLVE_METHODS for m in methods)
        out.update(
            {
                "norm_engine.holder.calls": sum(s.layer == "norm_engine.holder" for s in self.spans),
                "norm_engine.holder.s": self._inclusive("norm_engine.holder"),
                "norm_engine.holder.nodes": sum(a["nodes"] for a in scans),
                "norm_engine.holder.pairs_exact": sum(
                    a["nodes"] * (a["nodes"] - 1) // 2 for a in scans if a["mode"] == "exhaustive"
                ),
                "norm_engine.holder.inexact": sum(a["mode"] != "exhaustive" for a in scans),
                "norm_engine.lp_norm.s": self._inclusive("norm_engine.lp_norm"),
                "norm_engine.derivative.self_s": self._self("norm_engine.derivative"),
                "field_calculus.mollify.s": self._inclusive("field_calculus.mollify"),
                "field_calculus.gradient.s": self._inclusive("field_calculus.gradient"),
            }
        )
        for part in ("blowup", "bootstrap", "regularize", "schauder_ratio"):
            out[f"schauder_harness.{part}.self_s"] = self._self(f"schauder_harness.{part}")
        for mod_name in ("degiorgi", "caccioppoli", "liouville_lab"):
            out[f"{mod_name}.self_s"] = self._self(mod_name)
        out["generators.s"] = self._inclusive("generators")
        for c in CLI_COMMANDS:
            out[f"cli_reports.run.{c}.s"] = sum(
                s.duration for s in self.spans if s.name == f"cli_reports.run.{c}"
            )
        return out

    def scans_above_cutoff(self, cutoff: int) -> int:
        return sum(
            s.attrs["nodes"] > cutoff for s in self.spans if s.layer == "norm_engine.holder" and s.attrs
        )

    def write(self, path) -> None:
        records = [
            {
                "id": s.id, "name": s.name, "parent": s.parent,
                "start": s.start, "end": s.end, "self_s": s.duration - s.child_s, **s.attrs,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": records, "metrics": self.layer_metrics()}, fh)
