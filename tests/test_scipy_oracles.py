"""The package's numpy kernels against the scipy routines they replace.

The package imports only ``scipy.sparse``; ``scipy.ndimage`` and
``scipy.interpolate`` appear here as reference implementations, and every
comparison is bytewise.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import ndimage
from scipy.interpolate import RegularGridInterpolator

from schauderlab.domain_grid import make_grid
from schauderlab.field_calculus import Field, gradient, mollifier_weights, mollify
from schauderlab.generators import random_problem
from schauderlab.schauder_harness import _multilinear, _sample_window, rescale_problem

CASES = [
    (n, m, k)
    for n, m in ((2, 129), (3, 17), (3, 33))
    for k in (2.02, 4.0, 8.0)
    if k * 2.0 / (m - 1) < 1.0  # the kernel must sit strictly inside the box
]


def _partially_valid(n, m, seed=0):
    # about 2% of the nodes are invalid, scattered over the quarter x_0 < -0.5,
    # so that even the widest kernel leaves valid nodes elsewhere
    grid = make_grid(n, 1.0, m)
    rng = np.random.default_rng(seed)
    invalid = (grid.coords()[0] < -0.5) & (rng.random(grid.shape) < 0.08)
    return Field(grid, rng.standard_normal(grid.shape), ~invalid)


@pytest.mark.parametrize("n,m,k", CASES)
def test_mollify_matches_ndimage(n, m, k):
    g = _partially_valid(n, m)
    eps = k * g.grid.h
    got = mollify(g, eps)
    weights = mollifier_weights(g.grid, eps)
    ok = ndimage.binary_erosion(g.valid, structure=weights > 0, border_value=0)
    ref = ndimage.convolve(g.values, weights, mode="constant", cval=0.0)
    assert 0 < ok.sum() < ok.size
    assert got.valid.tobytes() == ok.tobytes()
    assert got.values.tobytes() == np.where(ok, ref, 0.0).tobytes()


@pytest.mark.parametrize("n,m", [(2, 129), (3, 17)])
def test_gradient_validity_matches_binary_erosion(n, m):
    u = _partially_valid(n, m, seed=1)
    cross = ndimage.generate_binary_structure(n, 1)
    ok = ndimage.binary_erosion(u.valid, structure=cross, border_value=0)
    assert gradient(u).valid.tobytes() == ok.tobytes()


def _read_only(values):
    # the package samples Field and CoefficientField arrays, which are never
    # writeable; scipy evaluates those on its numpy path in every dimension
    values = np.array(values)
    values.setflags(write=False)
    return values


@pytest.mark.parametrize("n,m", [(2, 129), (2, 33), (3, 17)])
def test_multilinear_matches_regular_grid_interpolator(n, m):
    grid = make_grid(n, 1.0, m)
    rng = np.random.default_rng(3)
    values = _read_only(rng.standard_normal(grid.shape))
    pts = rng.uniform(-1.2, 1.2, size=(400, n))
    pts[:4] = 1.0  # the upper face, where the last cell is closed
    pts[4:8] = -1.0
    pts[8:40] = grid.axis[rng.integers(0, m, size=(32, n))]
    ref = RegularGridInterpolator(
        (grid.axis,) * n, values, method="linear", bounds_error=False, fill_value=np.nan
    )(pts)
    got = _multilinear(values, grid.axis, list(pts.T))
    assert 0 < np.isnan(ref).sum() < len(pts)
    assert got.tobytes() == ref.tobytes()


def test_sample_window_matches_nan_filled_interpolator():
    grid = make_grid(2, 1.0, 129)
    window = make_grid(2, 8.0, 33)
    values = _read_only(np.random.default_rng(4).standard_normal(grid.shape))
    base, r_sep = np.array([0.9, -0.3]), 0.04  # the window pokes out of the box
    ref = RegularGridInterpolator(
        (grid.axis,) * 2, values, method="linear", bounds_error=False, fill_value=np.nan
    )(np.stack([base[a] + r_sep * window.coords()[a] for a in range(2)], axis=-1).reshape(-1, 2))
    ref = ref.reshape(window.shape)
    samples, ok = _sample_window(values, grid, base, r_sep, window)
    assert 0 < ok.sum() < ok.size
    assert ok.tobytes() == np.isfinite(ref).tobytes()
    assert samples.tobytes() == np.where(ok, ref, 0.0).tobytes()


def test_rescale_problem_matches_interpolator():
    grid = make_grid(2, 1.0, 65)
    problem = random_problem(grid, np.random.default_rng(5))
    x0, t = np.array([0.1, -0.2]), 0.37
    zoomed = rescale_problem(problem, x0, t, problem.g, m=41)
    sub = make_grid(2, 1.0, 41)
    pts = np.stack([x0[a] + t * sub.coords()[a] for a in range(2)], axis=-1).reshape(-1, 2)

    def ref(values):
        interp = RegularGridInterpolator((grid.axis,) * 2, values, method="linear")
        return interp(pts).reshape(sub.shape)

    for a in range(2):
        for b in range(2):
            assert zoomed.A.entries[a, b].tobytes() == ref(problem.A.entries[a, b]).tobytes()
        assert zoomed.F.components[a].tobytes() == (t * ref(problem.F.components[a])).tobytes()
    assert zoomed.f.values.tobytes() == (t**2 * ref(problem.f.values)).tobytes()
    assert zoomed.g.values.tobytes() == ref(problem.g.values).tobytes()


def test_rescale_problem_rejects_points_outside_the_box():
    # within the 1e-12 slack of the target check, so only the sampler sees it
    grid = make_grid(2, 1.0, 33)
    problem = random_problem(grid, np.random.default_rng(6))
    x0, t = np.array([0.5, 0.0]), 0.5 + 5e-13
    with pytest.raises(ValueError):
        RegularGridInterpolator((grid.axis,) * 2, problem.g.values)([[x0[0] + t, 0.0]])
    with pytest.raises(ValueError):
        rescale_problem(problem, x0, t, problem.g, m=9)


def test_package_imports_no_dense_scipy_subpackages():
    # nor scipy.sparse.linalg, also once a solve has run
    child = """
import sys
import numpy as np
import schauderlab, schauderlab.cli_reports
from schauderlab.domain_grid import make_grid
from schauderlab.elliptic_solver import solve_dirichlet
from schauderlab.generators import random_problem
solve_dirichlet(random_problem(make_grid(2, 1.0, 33), np.random.default_rng(0)))
banned = ("ndimage", "integrate", "interpolate", "optimize", "special")
loaded = [m for m in sys.modules if m.split(".")[:2] in [["scipy", b] for b in banned]]
loaded += [m for m in sys.modules if m.split(".")[:3] == ["scipy", "sparse", "linalg"]]
print(sorted(loaded))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
