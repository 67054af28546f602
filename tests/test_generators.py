"""Bit pins of the generators: every CLI CSV depends on these bytes.

The fingerprints hash the problem data (A, f, F, g, p, q). They were
recorded with numpy 2.4 on x86-64. Plane waves take sines of per-axis
products only, and their sums run in a fixed order with no BLAS call, so
the pins hold under any BLAS thread count; a numpy build whose sin or cos
differs in the last bit moves every pin at once. After an intentional
generator change, print the new table with

    PYTHONPATH=src python tests/test_generators.py
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from schauderlab.domain_grid import make_grid
from schauderlab.elliptic_solver import EllipticProblem
from schauderlab.field_calculus import Field, VecField
from schauderlab.generators import (
    _plane_waves,
    harmonic_saddle_problem,
    random_problem,
    sine_forcing_problem,
    sup_bound_problem,
    trig_coefficient_field,
)


def _nonsymmetric_trig(grid, rng):
    A = trig_coefficient_field(grid, rng, symmetric=False)
    zero = Field.zeros(grid)
    return EllipticProblem(A=A, f=zero, F=VecField.zeros(grid), g=zero)


def _rough(grid, rng):
    return random_problem(grid, rng, rough_alpha=0.5)


PINS = [
    ("random-2d-m65", random_problem, 2, 65, {0: "13bd0b35e421", 7: "5fd6e2165415"}),
    ("random-3d-m17", random_problem, 3, 17, {0: "54f6075f46e2", 7: "f149d1c27238"}),
    ("sup-bound-m65", sup_bound_problem, 2, 65, {0: "bf9f638a26de", 7: "64b5f2cff0ff"}),
    ("rough-m65", _rough, 2, 65, {0: "9bf988ddd4cb", 7: "702c4cf44578"}),
    ("nonsymmetric-trig-m65", _nonsymmetric_trig, 2, 65, {0: "1bbbacdc9100", 7: "ef195cbdfaab"}),
]


@pytest.mark.parametrize("build, n, m, pins", [p[1:] for p in PINS], ids=[p[0] for p in PINS])
@pytest.mark.parametrize("seed", [0, 7])
def test_generator_fingerprint_pinned(build, n, m, pins, seed):
    problem = build(make_grid(n, 1.0, m), np.random.default_rng(seed))
    assert problem.fingerprint() == pins[seed]


def test_fingerprints_independent_of_blas_threads():
    # A BLAS contraction in the plane waves (matmul, tensordot, einsum with
    # optimize) changes these bytes between one and two OpenBLAS threads. It
    # splits its work only on large grids, so the fields are 2-D m = 513.
    child = (
        "import numpy as np\n"
        "from schauderlab.domain_grid import make_grid\n"
        "from schauderlab.generators import random_problem\n"
        "grid = make_grid(2, 1.0, 513)\n"
        "for alpha in (None, 0.5):\n"
        "    print(random_problem(grid, np.random.default_rng(0), rough_alpha=alpha).fingerprint())\n"
    )
    prints = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        prints.append(done.stdout.split())
    assert len(prints[0]) == 2
    assert prints[0] == prints[1]


@pytest.mark.parametrize("m", [65, 129, 257])
def test_axis_view_fields_match_meshgrid_bytes(m):
    grid = make_grid(2, 1.0, m)
    prob, exact = sine_forcing_problem(grid)
    f = Field.from_function(grid, lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y))
    u = Field.from_function(grid, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    assert prob.f.values.tobytes() == f.values.tobytes()
    assert exact.values.tobytes() == u.values.tobytes()
    saddle, _ = harmonic_saddle_problem(grid)
    g = Field.from_function(grid, lambda x, y: x**2 - y**2)
    assert saddle.g.values.tobytes() == g.values.tobytes()


def _direct_plane_waves(grid, amps, omegas, phases):
    """One full-grid sine per term, of the rounded sum w . x + phi."""
    vals = np.zeros(grid.shape)
    for a, omega, phi in zip(amps, omegas, phases):
        vals += a * np.sin(sum(w * x for w, x in zip(omega, grid.axis_views())) + phi)
    return vals


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="no long double wider than float64 to serve as reference",
)
@pytest.mark.parametrize("octaves", [False, True], ids=["smooth", "octaves"])
@pytest.mark.parametrize("n, m", [(2, 129), (3, 33)])
def test_separable_plane_waves_no_less_accurate_than_direct(n, m, octaves):
    # 6 fields of 4 terms, 300 sampled nodes each; octave frequencies reach
    # 4^3 * 1.3 = 83.2 per axis, as in rough_holder_coefficient_field
    rng = np.random.default_rng(20)
    grid = make_grid(n, 1.0, m)
    ld = np.longdouble
    errors = {"separable": [], "direct": []}
    for _ in range(6):
        amps = rng.uniform(0.5, 1.0, size=4)
        if octaves:
            scale = 4.0 ** np.arange(4)[:, None] * rng.choice((-1.0, 1.0), size=(4, n))
            omegas = scale * rng.uniform(0.7, 1.3, size=(4, n))
        else:
            omegas = rng.uniform(-3.0, 3.0, size=(4, n))
        phases = rng.uniform(0, 2 * np.pi, size=4)
        nodes = tuple(rng.integers(0, m, size=(n, 300)))
        x = np.stack([grid.axis[i] for i in nodes]).astype(ld)
        exact = (amps.astype(ld)[:, None] * np.sin(omegas.astype(ld) @ x + phases.astype(ld)[:, None])).sum(0)
        for name, form in (("separable", _plane_waves), ("direct", _direct_plane_waves)):
            errors[name].append(np.abs(form(grid, amps, omegas, phases)[nodes] - exact).astype(float))
    sep, direct = np.concatenate(errors["separable"]), np.concatenate(errors["direct"])
    assert sep.max() <= direct.max()
    assert sep.mean() <= direct.mean()


if __name__ == "__main__":
    # print PINS as recorded by this build, ready to paste
    for name, build, n, m, pins in PINS:
        prints = ", ".join(
            f'{seed}: "{build(make_grid(n, 1.0, m), np.random.default_rng(seed)).fingerprint()}"'
            for seed in pins
        )
        print(f'    ("{name}", {build.__name__}, {n}, {m}, {{{prints}}}),')
