import gc
import importlib.machinery
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from schauderlab import elliptic_solver
from schauderlab.domain_grid import ball_region, box_region, make_grid
from schauderlab.errors import NotEllipticError, SolverStagnationError, SupportViolationError
from schauderlab.field_calculus import Field, VecField, gradient
from schauderlab.elliptic_solver import (
    SOLVE_RTOL,
    CoefficientField,
    DiscreteSolution,
    EllipticProblem,
    assemble,
    solve_dirichlet,
    weak_residual,
)
from schauderlab.generators import (
    bump_field,
    harmonic_saddle_problem,
    random_problem,
    rough_holder_coefficient_field,
    sine_forcing_problem,
    trig_coefficient_field,
)
from schauderlab.norm_engine import hk_norm, lp_norm


def test_validate_identity(grid65):
    A = CoefficientField.identity(grid65)
    assert (A.lam, A.Lam, A.L) == (1.0, 1.0, 1.0)


def test_certificates_are_fixed_at_construction(grid65):
    assert not [name for name in dir(CoefficientField) if name.startswith("set_")]
    assert CoefficientField.identity(grid65).lipschitz_bound == 0.0
    assert CoefficientField.from_constant(grid65, [[2.0, 0.3], [0.3, 1.0]]).lipschitz_bound == 0.0
    entries = CoefficientField.identity(grid65).entries
    plain = CoefficientField(grid65, entries)
    assert (plain.lipschitz_bound, plain.holder) == (None, None)
    assert CoefficientField(grid65, entries, holder=(1, 2)).holder == (1.0, 2.0)
    for alpha in (0.0, 1.5):
        with pytest.raises(ValueError, match="certificate exponent"):
            CoefficientField(grid65, entries, holder=(alpha, 1.0))


def test_certificate_values_must_be_finite_bounds(grid65):
    # a negative or NaN bound bounds nothing, so no estimate may run on it
    prob = random_problem(make_grid(2, 1.0, 17), np.random.default_rng(1))
    for certs, key in (({"F_sup": -1.0, "F_lipschitz": float("nan")}, "F_sup"),
                       ({"F_sup": 1.0, "F_lipschitz": float("nan")}, "F_lipschitz"),
                       ({"f_sup": float("inf")}, "f_sup")):
        with pytest.raises(ValueError, match=f"certificate {key} "):
            replace(prob, certificates=certs)
    assert replace(prob, certificates={"F_sup": 0.0}).certificates == {"F_sup": 0.0}
    entries = CoefficientField.identity(grid65).entries
    for kwargs, name in (({"lipschitz": -0.5}, "lipschitz"), ({"lipschitz": float("nan")}, "lipschitz"),
                         ({"holder": (0.5, -1.0)}, "holder"), ({"holder": (0.5, float("inf"))}, "holder")):
        with pytest.raises(ValueError, match=f"certificate {name} "):
            CoefficientField(grid65, entries, **kwargs)


def test_validate_diagonal(grid65):
    A = CoefficientField.from_constant(grid65, [[1.0, 0.0], [0.0, 2.0]])
    assert (A.lam, A.Lam, A.L) == (1.0, 2.0, 2.0)


def test_validate_antisymmetric_part_ignored(grid65):
    # oracle: the quadratic form only sees (A + A^T)/2 = I
    A = CoefficientField.from_constant(grid65, [[1.0, 1.0], [-1.0, 1.0]])
    assert A.lam == pytest.approx(1.0, abs=1e-12)
    assert A.Lam == pytest.approx(1.0, abs=1e-12)
    assert A.L == 1.0
    assert not A.is_symmetric


def test_not_elliptic_reports_node(grid65):
    entries = np.zeros((2, 2) + grid65.shape)
    entries[0, 0] = 1.0
    entries[1, 1] = 1.0
    entries[1, 1, 3, 5] = -0.5
    with pytest.raises(NotEllipticError) as err:
        CoefficientField(grid65, entries)
    assert err.value.node == (3, 5)


def _all_node_certificate(grid, entries):
    """Reference: one eigvalsh on the symmetric part at every node, np.argmin
    for the node. Returns (lam, Lam, L, is_symmetric, node or None)."""
    n = grid.n
    ent = entries.reshape(n, n, -1)
    sym = 0.5 * (ent + ent.transpose(1, 0, 2)).transpose(2, 0, 1)
    eigs = np.linalg.eigvalsh(sym)
    lam_idx = int(np.argmin(eigs[:, 0]))
    lam = float(eigs[lam_idx, 0])
    Lam = float(eigs[:, -1].max())
    L = float(np.abs(entries).max())
    is_symmetric = all(
        np.abs(entries[i, j] - entries[j, i]).max() <= 1e-14 * max(1.0, L)
        for i in range(n)
        for j in range(i)
    )
    node = np.unravel_index(lam_idx, grid.shape) if lam <= 0 else None
    return lam, Lam, L, is_symmetric, node


def _certificate(grid, entries):
    try:
        A = CoefficientField(grid, entries)
    except NotEllipticError as err:
        return err.eigenvalue, err.node
    return A.lam, A.Lam, A.L, A.is_symmetric, None


def _assert_certificate_matches_reference(grid, entries):
    ref = _all_node_certificate(grid, entries)
    if ref[-1] is None:
        assert _certificate(grid, entries) == ref
    else:
        assert _certificate(grid, entries) == (ref[0], ref[-1])


def _node_field(grid, matrices):
    """Entries of the field with matrix k, of shape (N, n, n), at flat node k."""
    return np.ascontiguousarray(matrices.transpose(1, 2, 0)).reshape((grid.n, grid.n) + grid.shape)


def _rotated(rng, grid, diagonal):
    """Random rotations of one diagonal matrix, one per node."""
    q, _ = np.linalg.qr(rng.normal(size=(grid.num_nodes, grid.n, grid.n)))
    return _node_field(grid, np.einsum("kij,j,klj->kil", q, np.asarray(diagonal), q))


def _palette(rng, n, size):
    """Mostly elliptic matrices whose antisymmetric part often holds the
    entry of largest modulus, at either sign."""
    k = 2.0 * rng.normal(size=(size, n, n))
    return np.eye(n) + 0.3 * rng.normal(size=(size, n, n)) + k - k.transpose(0, 2, 1)


_FIELD_KINDS = [
    "symmetric", "nonsymmetric", "rough", "constant", "identity",
    "rotated-simple", "rotated-double", "palette", "noise",
]


def _field_entries(kind, n, seed, delta):
    grid = make_grid(n, 1.0, 17 if n == 2 else 9)
    rng = np.random.default_rng(seed)
    N = grid.num_nodes
    if kind in ("symmetric", "nonsymmetric"):
        return grid, trig_coefficient_field(grid, rng, symmetric=kind == "symmetric").entries
    if kind == "rough":
        return grid, rough_holder_coefficient_field(grid, rng, alpha=0.5).entries
    if kind == "constant":
        return grid, _node_field(grid, np.broadcast_to(_palette(rng, n, 1)[0], (N, n, n)))
    if kind == "identity":
        return grid, CoefficientField.identity(grid).entries
    if kind == "rotated-simple":
        return grid, _rotated(rng, grid, [1.0] * (n - 1) + [1.0 + delta])
    if kind == "rotated-double":
        return grid, _rotated(rng, grid, [1.0] + [1.0 + delta] * (n - 1))
    if kind == "palette":
        # three matrices at random nodes: exact ties between scattered nodes
        return grid, _node_field(grid, _palette(rng, n, 3)[rng.integers(0, 3, size=N)])
    # "noise": mostly not elliptic, so the reported node is checked
    return grid, _node_field(grid, np.eye(n) + rng.normal(size=(N, n, n)))


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(_FIELD_KINDS),
    n=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    log_delta=st.floats(-16.0, -2.0),
    scale=st.sampled_from([1.0, 1e-150, 1e150]),
)
def test_certificate_equals_all_node_eigvalsh(kind, n, seed, log_delta, scale):
    # lam, Lam, L, is_symmetric and the NotEllipticError node are the values
    # an eigvalsh call on every node gives, to the last bit
    grid, entries = _field_entries(kind, n, seed, 10.0**log_delta)
    _assert_certificate_matches_reference(grid, entries * scale)


@pytest.mark.parametrize("n", [2, 3])
def test_not_elliptic_reports_first_of_tied_nodes(n):
    grid = make_grid(n, 1.0, 9)
    entries = np.array(CoefficientField.identity(grid).entries)
    bad = np.diag([1.0] * (n - 1) + [-0.5])
    flat = entries.reshape(n, n, -1)
    for node in (40, 7):
        flat[:, :, node] = bad
    with pytest.raises(NotEllipticError) as err:
        CoefficientField(grid, entries)
    assert err.value.node == np.unravel_index(7, grid.shape)
    assert err.value.eigenvalue == -0.5
    _assert_certificate_matches_reference(grid, entries)


@pytest.fixture()
def eigvalsh_matrices(monkeypatch):
    """Count the matrices passed to np.linalg.eigvalsh."""
    counted = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        counted.append(np.asarray(a).shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return counted


@pytest.mark.parametrize("n, m", [(2, 129), (3, 33)])
def test_certification_sends_few_matrices_to_lapack(eigvalsh_matrices, n, m):
    grid = make_grid(n, 1.0, m)
    trig_coefficient_field(grid, np.random.default_rng(0))
    assert sum(eigvalsh_matrices) <= 4
    eigvalsh_matrices.clear()
    CoefficientField.identity(grid)
    assert sum(eigvalsh_matrices) == 1


def test_exponent_constraints(grid65):
    A = CoefficientField.identity(grid65)
    zero = Field.zeros(grid65)
    with pytest.raises(ValueError):
        EllipticProblem(A=A, f=zero, F=VecField.zeros(grid65), g=zero, p=1.0)
    with pytest.raises(ValueError):
        EllipticProblem(A=A, f=zero, F=VecField.zeros(grid65), g=zero, q=2.0)


def test_assemble_identity_five_point(grid65):
    prob, _ = harmonic_saddle_problem(grid65)
    system = assemble(prob)
    c = grid65.m // 2 - 1  # the centre node's index along each interior axis
    row = system.matrix.getrow(c * (grid65.m - 2) + c)
    weights = sorted(row.data * grid65.h**2)
    np.testing.assert_allclose(weights, [-1, -1, -1, -1, 4], atol=1e-13)


def test_assemble_zero_data_zero_rhs(grid65):
    A = CoefficientField.identity(grid65)
    zero = Field.zeros(grid65)
    system = assemble(EllipticProblem(A=A, f=zero, F=VecField.zeros(grid65), g=zero))
    assert np.abs(system.rhs).max() == 0.0


def test_assemble_symmetric_operator(rng, grid65):
    A = trig_coefficient_field(grid65, rng, beta=0.2)
    prob = EllipticProblem(
        A=A, f=Field.zeros(grid65), F=VecField.zeros(grid65), g=Field.zeros(grid65)
    )
    matrix = assemble(prob).matrix
    assert abs(matrix - matrix.T).max() == 0.0


def test_manufactured_convergence():
    errors = []
    for m in (65, 129):
        grid = make_grid(2, 1.0, m)
        prob, exact = sine_forcing_problem(grid)
        sol = solve_dirichlet(prob)
        errors.append(np.abs(sol.u.values - exact.values).max())
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_saddle_reproduced_exactly(grid129):
    prob, exact = harmonic_saddle_problem(grid129)
    sol = solve_dirichlet(prob)
    assert np.abs(sol.u.values - exact.values).max() <= 1e-10
    assert sol.diagnostics["residual"] <= 1e-10


def test_constant_boundary_constant_solution(grid65):
    A = CoefficientField.identity(grid65)
    prob = EllipticProblem(
        A=A, f=Field.zeros(grid65), F=VecField.zeros(grid65), g=Field.full(grid65, 2.5)
    )
    sol = solve_dirichlet(prob)
    assert np.abs(sol.u.values - 2.5).max() < 1e-10


def test_boundary_values_match_exactly(rng, grid65):
    prob = random_problem(grid65, rng)
    sol = solve_dirichlet(prob)
    assert np.array_equal(sol.u.values[0, :], prob.g.values[0, :])
    assert np.array_equal(sol.u.values[:, -1], prob.g.values[:, -1])


def test_solution_map_linear(rng, grid65):
    prob = random_problem(grid65, rng)
    sol = solve_dirichlet(prob)
    sol3 = solve_dirichlet(prob.scaled(3.0))
    assert np.abs(sol3.u.values - 3.0 * sol.u.values).max() < 1e-8


def test_scaled_problem_scales_its_certificates(rng, grid65):
    # every data certificate bounds a norm of f or F, homogeneous of degree 1
    prob = random_problem(grid65, rng)
    certs = dict(prob.certificates)
    for scaled in (prob.scaled(-2.5), DiscreteSolution(Field.zeros(grid65), prob).scaled(-2.5).problem):
        assert scaled.certificates == {key: 2.5 * bound for key, bound in certs.items()}
        assert np.abs(scaled.f.values).max() <= scaled.certificates["f_sup"]
        assert np.abs(scaled.F.components).max() <= scaled.certificates["F_sup"]
        assert np.abs(gradient(scaled.f).components).max() <= scaled.certificates["f_lipschitz"]
    assert prob.certificates == certs


def test_nonsymmetric_solve(grid65):
    A = CoefficientField.from_constant(grid65, [[1.0, 0.3], [-0.3, 1.0]])
    prob = EllipticProblem(
        A=A, f=Field.full(grid65, 1.0), F=VecField.zeros(grid65), g=Field.zeros(grid65)
    )
    sol = solve_dirichlet(prob)
    assert sol.diagnostics["residual"] <= 1e-10
    assert not sol.diagnostics["symmetric"]


def test_iterative_path_at_fine_resolution():
    grid = make_grid(2, 1.0, 257)
    prob, exact = sine_forcing_problem(grid)
    sol = solve_dirichlet(prob)
    assert sol.diagnostics["method"] == "mg-cg"
    assert np.abs(sol.u.values - exact.values).max() < 1e-3


def test_nonsymmetric_iterative_path():
    grid = make_grid(2, 1.0, 161)
    A = CoefficientField.from_constant(grid, [[1.0, 0.4], [-0.4, 1.0]])
    prob = EllipticProblem(
        A=A, f=Field.full(grid, 1.0), F=VecField.zeros(grid), g=Field.zeros(grid)
    )
    sol = solve_dirichlet(prob)
    assert sol.diagnostics["method"] == "mg-bicgstab"
    assert sol.diagnostics["residual"] <= 1e-10



ITERATION_CASES = [(2, 23, True), (2, 65, True), (2, 257, True), (2, 257, False), (3, 33, True)]


def _iteration_problem(n, m, symmetric):
    grid = make_grid(n, 1.0, m)
    rng = np.random.default_rng(m)
    prob = random_problem(grid, rng)
    if not symmetric:
        A = trig_coefficient_field(grid, rng, beta=0.2, symmetric=False)
        prob = EllipticProblem(A=A, f=prob.f, F=prob.F, g=prob.g, p=prob.p, q=prob.q)
    return prob


@pytest.mark.parametrize("n, m, symmetric", ITERATION_CASES)
def test_iterations_independent_of_grid(n, m, symmetric):
    sol = solve_dirichlet(_iteration_problem(n, m, symmetric))
    assert sol.diagnostics["symmetric"] == symmetric
    assert sol.diagnostics["iterations"] <= 20
    assert sol.diagnostics["residual"] <= SOLVE_RTOL


def test_three_dimensional_m65_within_one_gib():
    # The child caps its own address space, so a solver that needs more
    # memory fails fast with MemoryError instead of exhausting the machine.
    child = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import numpy as np
from schauderlab.domain_grid import make_grid
from schauderlab.elliptic_solver import SOLVE_RTOL, solve_dirichlet
from schauderlab.generators import random_problem
sol = solve_dirichlet(random_problem(make_grid(3, 1.0, 65), np.random.default_rng(0)))
print(sol.diagnostics["iterations"], sol.diagnostics["residual"])
sys.exit(0 if sol.diagnostics["residual"] <= SOLVE_RTOL else 1)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr


def _nonsymmetric(prob, rng):
    A = trig_coefficient_field(prob.grid, rng, beta=0.2, symmetric=False)
    return EllipticProblem(A=A, f=prob.f, F=prob.F, g=prob.g, p=prob.p, q=prob.q)


def test_nonsymmetric_peak_memory_near_symmetric():
    # BiCGStab holds x, r, p, v and a scratch vector, and for one product
    # the preconditioned vector and t; CG holds x, r, p and a scratch
    # vector. Measured 1.05 (44.3 and 46.4 MB); a Krylov basis that grows
    # by one vector per iteration, as GMRES's did, reads 1.24 and fails.
    rng = np.random.default_rng(0)
    sym = random_problem(make_grid(2, 1.0, 513), rng)
    peaks = []
    for prob in (sym, _nonsymmetric(sym, rng)):
        tracemalloc.start()
        try:
            solve_dirichlet(prob)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("n, m", [(2, 3), (2, 5), (2, 9), (2, 11), (3, 3), (3, 5)])
@pytest.mark.parametrize("symmetric", [True, False])
def test_coarsest_level_alone_is_an_exact_solve(n, m, symmetric):
    # at most COARSEST_UNKNOWNS unknowns: no smoothing level, and the
    # preconditioner is the dense inverse, so one Krylov step solves; at
    # m = 3 every offset but the zero one leaves the one-node axes
    grid = make_grid(n, 1.0, m)
    assert (m - 2) ** n <= elliptic_solver.COARSEST_UNKNOWNS
    rng = np.random.default_rng(m)
    prob = random_problem(grid, rng)
    if not symmetric:
        prob = _nonsymmetric(prob, rng)
    sol = solve_dirichlet(prob)
    assert sol.diagnostics["symmetric"] == symmetric
    assert sol.diagnostics["iterations"] == 1
    assert sol.diagnostics["residual"] <= SOLVE_RTOL


def test_coarse_solve_independent_of_blas_threads():
    # The coarsest level is 100 unknowns at 2-D m = 23 and 27 at 3-D m = 33.
    # Its inverse is formed and applied with numpy ufuncs only; a LAPACK
    # inverse of the 100-unknown level differs in its last bits between one
    # and two OpenBLAS threads.
    child = """
import hashlib
import numpy as np
from schauderlab.domain_grid import make_grid
from schauderlab.elliptic_solver import EllipticProblem, solve_dirichlet
from schauderlab.generators import random_problem, trig_coefficient_field
for n, m in ((2, 23), (3, 33)):
    grid = make_grid(n, 1.0, m)
    rng = np.random.default_rng(m)
    prob = random_problem(grid, rng)
    A = trig_coefficient_field(grid, rng, beta=0.2, symmetric=False)
    for p in (prob, EllipticProblem(A=A, f=prob.f, F=prob.F, g=prob.g, p=prob.p, q=prob.q)):
        sol = solve_dirichlet(p)
        print(n, m, sol.diagnostics["method"], hashlib.sha256(sol.u.values.tobytes()).hexdigest())
"""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.splitlines())
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1]


def _kron_restriction(per_axis: int, n: int):
    """R = P^T as scipy builds it: linear interpolation from every other
    node of an axis, Kronecker-tensorized, transposed into CSR."""
    p1 = sp.diags([0.5, 1.0, 0.5], [-1, 0, 1], shape=(per_axis, per_axis), format="csc")[:, 1::2]
    P = p1
    for _ in range(n - 1):
        P = sp.kron(P, p1, format="csr")
    return P.T.tocsr()


def _level_sizes(n: int, m: int) -> list:
    """The per-axis interior sizes of the multigrid levels of a grid of m
    nodes per axis, finest first: every size with more than
    COARSEST_UNKNOWNS unknowns, halving."""
    sizes, per_axis = [], m - 2
    while per_axis**n > elliptic_solver.COARSEST_UNKNOWNS:
        sizes.append(per_axis)
        per_axis //= 2
    return sizes


def _scipy_dia(offsets: tuple, table, per_axis: int):
    """scipy's dia_matrix of the _dia diagonals of a column-layout table."""
    shifts, data = elliptic_solver._dia(offsets, table, per_axis)
    return sp.dia_matrix((data, shifts), shape=(table.shape[1],) * 2)


@pytest.mark.parametrize(
    "n, sizes", [(2, (*range(3, 42), 63, 127, 255)), (3, (*range(3, 34), 63))], ids=["2d", "3d"]
)
def test_restriction_matches_kron_reference(n, sizes):
    # bit for bit, dtypes included; an even per_axis (m = 43 coarsens
    # 41 -> 20 -> 10) has a last coarse node with no right neighbour. The
    # whole grid's _restriction is scipy's R, and each restriction call's
    # prefix of a band is R's rows of its coarse slabs, its columns moved by
    # the call's fine start. The prolongation makes the same calls with the
    # slices swapped.
    for per_axis in sizes:
        ref = _kron_restriction(per_axis, n)
        assert ref.shape == ((per_axis // 2) ** n, per_axis**n), per_axis
        for name, got in zip(("indptr", "indices", "data"), elliptic_solver._restriction((per_axis,) * n)):
            want = getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (per_axis, name)
        restrict, prolong = elliptic_solver._transfers(per_axis, n)
        assert restrict[1:3] == ref.shape[::-1] and prolong[1:3] == ref.shape
        assert [(c, f, a) for f, c, a in restrict[3]] == prolong[3]
        for fine, coarse, (indptr, indices, data) in restrict[3]:
            fine_at, cols = fine.start, fine.stop - fine.start
            want, rows = ref[coarse], coarse.stop - coarse.start
            nnz = indptr[rows]
            assert indices[:nnz].max() < cols, per_axis
            assert np.array_equal(indptr[:rows + 1], want.indptr), per_axis
            assert np.array_equal(indices[:nnz] + fine_at, want.indices), per_axis
            assert data[:nnz].tobytes() == want.data.tobytes(), per_axis


BAND_GRIDS = [(2, 17), (2, 45), (2, 67), (2, 131), (3, 17), (3, 19), (3, 35), (3, 43)]


def test_banded_transfers_are_scipys_products(monkeypatch):
    # byte for byte at every level, in bands of one, two and three coarse
    # slabs, so that every level splits into several bands, some with a
    # shorter last one, and an even axis 0 (2-D m = 67, 131, 3-D m = 19,
    # 35, 43) adds its one-slab tail. t and e hold +0 and -0 too.
    rng = np.random.default_rng(3)
    tails = 0
    for n, m in BAND_GRIDS:
        for per_axis in _level_sizes(n, m):
            R = _kron_restriction(per_axis, n)
            for slabs in (1, 2, 3):
                monkeypatch.setattr(elliptic_solver, "BLOCK_ROWS", slabs * 3**n * (per_axis // 2) ** (n - 1))
                restrict, prolong = elliptic_solver._transfers(per_axis, n)
                calls = restrict[3]
                whole = per_axis // 2 - 1 + per_axis % 2
                assert len(calls) == -(-whole // slabs) + (per_axis % 2 == 0)
                assert len(calls) > 1 or slabs > 1  # one-slab bands split every level
                tails += per_axis % 2 == 0
                t, e = rng.standard_normal(R.shape[1]), rng.standard_normal(R.shape[0])
                t[::5], t[1::7], e[::5], e[1::7] = 0.0, -0.0, 0.0, -0.0
                got = elliptic_solver._apply(restrict, t)
                assert got.tobytes() == (R @ t).tobytes(), (n, m, per_axis, slabs)
                got = elliptic_solver._apply(prolong, e)
                assert got.tobytes() == (R.T @ e).tobytes(), (n, m, per_axis, slabs)
                for product, short in ((restrict, t[:-1]), (prolong, e[:-1])):
                    with pytest.raises(ValueError):
                        elliptic_solver._apply(product, short)
    assert tails == 3 * 10  # 2-D 32 and 16 of m = 67, 64 to 16 of 131; 3-D 8, 16, 8, 20, 10


def _check_into_nans(products, matrices, rng):
    """Each product applied into an out full of NaN is the fresh product
    and scipy's ``matrix @ x``, byte for byte; x holds +0 and -0 too."""
    for product, matrix in zip(products, matrices):
        x = rng.standard_normal(matrix.shape[1])
        x[::5], x[1::7] = 0.0, -0.0
        out = np.full(matrix.shape[0], np.nan)
        got = elliptic_solver._apply(product, x, out)
        assert got is out
        assert got.tobytes() == elliptic_solver._apply(product, x).tobytes() == (matrix @ x).tobytes()


def test_apply_into_a_callers_vector_is_the_fresh_product(monkeypatch):
    # A, R and R^T on every level of the band grids, in bands of one, two
    # and three coarse slabs, and R and R^T on even axes of 4 to 64 nodes,
    # whose one-slab tail call shares a fine slab with the call before it:
    # every row of out is set, and a shared fine slab of R^T e is zeroed
    # once, before the first of its two calls
    rng = np.random.default_rng(5)
    cases = 0
    for n, m in BAND_GRIDS:
        system = assemble(_stencil_problem(n, m, "nonsymmetric"))
        offsets, table = system.offsets, system.table
        for per_axis in _level_sizes(n, m):
            R = _kron_restriction(per_axis, n)
            for slabs in (1, 2, 3):
                monkeypatch.setattr(elliptic_solver, "BLOCK_ROWS", slabs * 3**n * (per_axis // 2) ** (n - 1))
                operator = elliptic_solver._operator(offsets, table, per_axis)
                products = (operator, *elliptic_solver._transfers(per_axis, n))
                _check_into_nans(products, (_scipy_dia(offsets, table, per_axis), R, R.T), rng)
                cases += 1
            offsets, table = elliptic_solver._galerkin(offsets, table, per_axis)
    monkeypatch.undo()
    for n, per_axis in [(2, s) for s in (4, 8, 10, 20, 32, 64)] + [(3, s) for s in (4, 8, 10, 20)]:
        R = _kron_restriction(per_axis, n)
        _check_into_nans(elliptic_solver._transfers(per_axis, n), (R, R.T), rng)
        cases += 1
    assert cases == 3 * 21 + 10


@pytest.mark.parametrize("n, m", BAND_GRIDS)
def test_solve_in_small_bands_is_the_solve(monkeypatch, n, m):
    # 1 000-row operator blocks and bands of a few coarse slabs, with the
    # even-axis tails, give the unpatched solution's bytes
    probs = [_stencil_problem(n, m, "symmetric"), _stencil_problem(n, m, "nonsymmetric")]
    want = [solve_dirichlet(prob) for prob in probs]
    monkeypatch.setattr(elliptic_solver, "BLOCK_ROWS", 1000)
    for prob, ref in zip(probs, want):
        sol = solve_dirichlet(prob)
        assert sol.diagnostics == ref.diagnostics
        assert sol.u.values.tobytes() == ref.u.values.tobytes()


def _stencil_problem(n, m, kind):
    grid = make_grid(n, 1.0, m)
    rng = np.random.default_rng(m)
    prob = random_problem(grid, rng)
    if kind == "symmetric":
        return prob
    if kind == "identity":
        A = CoefficientField.identity(grid)
    else:
        A = trig_coefficient_field(grid, rng, beta=0.2, symmetric=False)
    return EllipticProblem(A=A, f=prob.f, F=prob.F, g=prob.g, p=prob.p, q=prob.q)


STENCIL_GRIDS = [(2, 17), (2, 43), (2, 129), (3, 17), (3, 33)]
STENCIL_KINDS = ["symmetric", "nonsymmetric", "identity"]


@pytest.mark.parametrize("block_rows", [elliptic_solver.BLOCK_ROWS, 1000])
@pytest.mark.parametrize("kind", STENCIL_KINDS)
@pytest.mark.parametrize("n, m", STENCIL_GRIDS)
def test_blocked_dia_matvec_is_the_csr_matvec(monkeypatch, n, m, kind, block_rows):
    # byte for byte; 1000-row blocks split every grid above m = 17 (2-D)
    # into several blocks and a shorter last one. x holds +0 and -0 too.
    monkeypatch.setattr(elliptic_solver, "BLOCK_ROWS", block_rows)
    system = assemble(_stencil_problem(n, m, kind))
    operator = elliptic_solver._operator(system.offsets, system.table, m - 2)
    calls = operator[3]
    assert len(calls) == -(-system.rhs.size // block_rows)
    assert all(arrays[3] is system.table for _, _, arrays in calls)  # the table, no copies
    x = np.random.default_rng(0).standard_normal(system.rhs.size)
    x[::5], x[1::7] = 0.0, -0.0
    got = elliptic_solver._apply(operator, x)
    assert got.tobytes() == (system.matrix @ x).tobytes()


@pytest.mark.parametrize("n, m", [(2, 65), (2, 257), (2, 513), (3, 65)])
def test_matvec_into_a_callers_vector_is_the_dia_product(n, m):
    # byte for byte with scipy's dia_matrix of the whole table; every level,
    # of one block (2-D m = 65) or several, writes into the caller's vector,
    # whose NaNs must all be overwritten
    system = assemble(_stencil_problem(n, m, "nonsymmetric"))
    operator = elliptic_solver._operator(system.offsets, system.table, m - 2)
    x = np.random.default_rng(1).standard_normal(system.rhs.size)
    x[::5], x[1::7] = 0.0, -0.0
    out = np.full(x.size, np.nan)
    got = elliptic_solver._apply(operator, x, out)
    want = _scipy_dia(system.offsets, system.table, m - 2) @ x
    assert got.tobytes() == want.tobytes()
    assert got is out
    assert (len(operator[3]) == 1) == ((n, m) == (2, 65))
    for short in ((x[:-1], None), (x, out[:-1])):
        with pytest.raises(ValueError):
            elliptic_solver._apply(operator, *short)


def _reference_vcycle(levels, restrictions, coarse, r, k=0):
    """The V-cycle written as the expression x += dinv * (r - A x), each
    sweep making its vectors anew, with the transfers as scipy's products
    of each level's restriction R, a csr_matrix, and its transpose."""
    if k == len(levels):
        return np.add.reduce(coarse * r, axis=1)
    A, _, _, dinv = levels[k]
    R = restrictions[k]
    x = dinv * r
    for _ in range(elliptic_solver.SMOOTHING_SWEEPS - 1):
        x += dinv * (r - elliptic_solver._apply(A, x))
    x += R.T @ _reference_vcycle(levels, restrictions, coarse, R @ (r - elliptic_solver._apply(A, x)), k + 1)
    for _ in range(elliptic_solver.SMOOTHING_SWEEPS):
        x += dinv * (r - elliptic_solver._apply(A, x))
    return x


@pytest.mark.parametrize("n, m", [(2, 65), (2, 257), (3, 33)])
def test_vcycle_in_work_vectors_rounds_as_the_expression(n, m):
    # 2-D m = 257 has two blocks on its finest level; the restrictions of
    # the reference are scipy's, built apart from the solver's transfers
    system = assemble(_stencil_problem(n, m, "nonsymmetric"))
    operator = elliptic_solver._operator(system.offsets, system.table, m - 2)
    levels, coarse = elliptic_solver._multigrid_levels(system.offsets, system.table, m - 2, operator)
    restrictions = [_kron_restriction(per_axis, n) for per_axis in _level_sizes(n, m)]
    assert len(restrictions) == len(levels)
    r = np.random.default_rng(2).standard_normal(system.rhs.size)
    got = elliptic_solver._vcycle(levels, coarse, r)
    assert got.tobytes() == _reference_vcycle(levels, restrictions, coarse, r).tobytes()


def _reference_cg(apply, rhs, pre, tol):
    """CG with every update written as an expression that makes its
    vectors anew."""
    dot = elliptic_solver._dot
    x, r = np.zeros_like(rhs), rhs.copy()
    for k in range(elliptic_solver.KRYLOV_MAXITER):
        if dot(r, r) ** 0.5 < tol:
            return x, k
        z = pre(r)
        rho = dot(r, z)
        p = z if k == 0 else p * (rho / rho_prev) + z
        q = apply(p)
        alpha = rho / dot(p, q)
        x, r, rho_prev = x + alpha * p, r - alpha * q, rho
    return x, elliptic_solver.KRYLOV_MAXITER


def _reference_bicgstab(apply, rhs, pre, tol):
    """BiCGStab with every update written as an expression that makes its
    vectors anew."""
    dot = elliptic_solver._dot
    x, p, v, r = np.zeros_like(rhs), np.zeros_like(rhs), np.zeros_like(rhs), rhs.copy()
    rho_prev = alpha = omega = 1.0
    for k in range(elliptic_solver.KRYLOV_MAXITER):
        if dot(r, r) ** 0.5 < tol:
            return x, k
        rho = dot(rhs, r)
        p = r + rho / rho_prev * (alpha / omega) * (p - omega * v)
        z = pre(p)
        v = apply(z)
        alpha = rho / dot(rhs, v)
        x, r = x + alpha * z, r - alpha * v
        if dot(r, r) ** 0.5 < tol:
            return x, k + 1
        z = pre(r)
        t = apply(z)
        omega = dot(t, r) / dot(t, t)
        x, r, rho_prev = x + omega * z, r - omega * t, rho
    return x, elliptic_solver.KRYLOV_MAXITER


@pytest.mark.parametrize("symmetric", [True, False])
def test_krylov_in_work_vectors_rounds_as_the_expressions(symmetric):
    # 2-D m = 257: two blocks on the finest level
    system = assemble(_iteration_problem(2, 257, symmetric))
    operator = elliptic_solver._operator(system.offsets, system.table, 255)
    levels, coarse = elliptic_solver._multigrid_levels(system.offsets, system.table, 255, operator)
    args = (
        partial(elliptic_solver._apply, operator),
        system.rhs,
        lambda r: elliptic_solver._vcycle(levels, coarse, r),
        elliptic_solver.KRYLOV_RTOL * elliptic_solver._norm(system.rhs),
    )
    krylov, reference = (elliptic_solver._cg, _reference_cg) if symmetric else (elliptic_solver._bicgstab, _reference_bicgstab)
    (x, iterations), (want, want_iterations) = krylov(*args), reference(*args)
    assert iterations == want_iterations > 1
    assert x.tobytes() == want.tobytes()


def _csr_product(matrix, x, out=None):
    """A level's A x for a CSR operator: scipy's fresh product, out unread."""
    return matrix @ x


def _whole(kernel, matrix, rows: int, columns: int) -> tuple:
    """The product for _apply of one kernel call on all of a scipy
    matrix's arrays: csr_matvec on a csr_matrix is scipy's ``matrix @ x``,
    and csc_matvec on R's CSR arrays read as CSC is ``R.T @ e``."""
    whole = (slice(0, columns), slice(0, rows), (matrix.indptr, matrix.indices, matrix.data))
    return kernel, columns, rows, [whole]


def _spgemm_levels(matrix, per_axis: int, n: int) -> tuple:
    """The Galerkin hierarchy as sparse products build it: levels
    [(A, R, R^T, weighted inverse diagonal), ...] and the CSR operator of
    every level, the coarsest last, with R scipy's restriction, each of A,
    R and R^T one call on all its rows, and R A R^T formed as
    (R @ A) @ R.T."""
    kernels = elliptic_solver._sparsetools
    levels, operators = [], [matrix]
    while matrix.shape[0] > elliptic_solver.COARSEST_UNKNOWNS:
        R = _kron_restriction(per_axis, n)
        levels.append((
            _whole(kernels.csr_matvec, matrix, *matrix.shape),
            _whole(kernels.csr_matvec, R, *R.shape),
            _whole(kernels.csc_matvec, R, *R.shape[::-1]),
            elliptic_solver.JACOBI_WEIGHT / matrix.diagonal(),
        ))
        matrix = R @ matrix @ R.T
        operators.append(matrix)
        per_axis //= 2
    return levels, operators


@pytest.mark.parametrize("kind", STENCIL_KINDS)
@pytest.mark.parametrize("n, m", STENCIL_GRIDS)
def test_closed_form_levels_match_spgemm_reference(n, m, kind):
    # m = 43 coarsens 41 -> 20 -> 10, through an even per_axis
    system = assemble(_stencil_problem(n, m, kind))
    _, references = _spgemm_levels(system.matrix, m - 2, n)
    offsets, table, per_axis = system.offsets, system.table, m - 2
    for ref in references[1:]:
        offsets, table = elliptic_solver._galerkin(offsets, table, per_axis)
        per_axis //= 2
        got = _scipy_dia(offsets, table, per_axis).tocsr()
        assert abs(got - ref).max() <= 1e-13 * abs(ref).max(), per_axis


def _geometric_dense(offsets: tuple, table, per_axis: int):
    """The operator of a column-layout table entry by entry from the grid:
    row x, column x + offset, wherever x + offset is a node."""
    shape = (per_axis,) * len(offsets[0])
    dense = np.zeros((table.shape[1],) * 2)
    for x in np.ndindex(shape):
        for offset, weights in zip(offsets, table):
            y = tuple(a + o for a, o in zip(x, offset))
            if all(0 <= b < per_axis for b in y):
                col = np.ravel_multi_index(y, shape)
                dense[np.ravel_multi_index(x, shape), col] = weights[col]
    return dense


@pytest.mark.parametrize("n, m", [(2, 3), (3, 3), (3, 7), (3, 13)])
def test_dia_view_sums_offsets_that_share_a_shift(n, m):
    # a one-node axis (m = 3); 3-D m = 7 and 13 coarsen to two nodes per axis
    system = assemble(_stencil_problem(n, m, "nonsymmetric"))
    offsets, table, per_axis = system.offsets, system.table, m - 2
    while table.shape[1] > elliptic_solver.COARSEST_UNKNOWNS:
        offsets, table = elliptic_solver._galerkin(offsets, table, per_axis)
        per_axis //= 2
    assert per_axis <= 2
    shifts, _ = elliptic_solver._dia(offsets, table, per_axis)
    assert shifts.size < len(offsets)
    want = _geometric_dense(offsets, table, per_axis)
    assert _scipy_dia(offsets, table, per_axis).toarray().tobytes() == want.tobytes()  # through scipy's tocsr
    assert elliptic_solver._dense(offsets, table, per_axis).tobytes() == want.tobytes()


DENSE_GRIDS = [(2, 3), (2, 5), (2, 9), (2, 17), (2, 33), (2, 43), (2, 129), (3, 3), (3, 5), (3, 7), (3, 9), (3, 13), (3, 17), (3, 33)]


@pytest.mark.parametrize("kind", ["symmetric", "nonsymmetric"])
def test_dense_is_scipys_toarray_on_every_small_level(kind):
    # byte for byte on every level of at most 1 000 unknowns, the coarsest
    # included; m = 3 and the 3-D m = 7 and 13 levels of two nodes per axis
    # share shifts, and 2-D m = 43 coarsens through an even axis. A larger
    # level is never densified: 2-D m = 129 is 2 GB dense.
    checked = 0
    for n, m in DENSE_GRIDS:
        system = assemble(_stencil_problem(n, m, kind))
        offsets, table, per_axis = system.offsets, system.table, m - 2
        while True:
            if table.shape[1] <= 1000:
                want = _scipy_dia(offsets, table, per_axis).toarray()
                assert elliptic_solver._dense(offsets, table, per_axis).tobytes() == want.tobytes(), (n, m, per_axis)
                checked += 1
            if table.shape[1] <= elliptic_solver.COARSEST_UNKNOWNS:
                break
            offsets, table = elliptic_solver._galerkin(offsets, table, per_axis)
            per_axis //= 2
    assert checked == 25


@pytest.mark.parametrize("n, m, symmetric", ITERATION_CASES)
def test_iterations_equal_spgemm_reference(n, m, symmetric):
    prob = _iteration_problem(n, m, symmetric)
    system = assemble(prob)
    levels, operators = _spgemm_levels(system.matrix, m - 2, n)
    coarse = elliptic_solver._dense_inverse(operators[-1].toarray())
    krylov = elliptic_solver._cg if symmetric else elliptic_solver._bicgstab
    _, iterations = krylov(
        partial(_csr_product, system.matrix),
        system.rhs,
        lambda r: elliptic_solver._vcycle(levels, coarse, r),
        elliptic_solver.KRYLOV_RTOL * elliptic_solver._norm(system.rhs),
    )
    assert solve_dirichlet(prob).diagnostics["iterations"] == iterations


def test_solve_builds_no_csr_operator(monkeypatch):
    # nor any other scipy.sparse object: the products, the transfers and the
    # densified coarsest level all work on the package's own arrays. The
    # recorder sees the CSR matrix that LinearSystem.matrix builds.
    built = []
    init = sp._base._spbase.__init__

    def recorded(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sp._base._spbase, "__init__", recorded)
    for symmetric in (True, False):
        sol = solve_dirichlet(_iteration_problem(2, 65, symmetric))
        assert sol.diagnostics["residual"] <= SOLVE_RTOL
    assert built == []
    assert assemble(_iteration_problem(2, 17, True)).matrix.shape == (225, 225)
    assert "csr_matrix" in built


def test_missing_sparse_kernels_raise_import_error(monkeypatch):
    # no fallback: the error names the folder searched and scipy's version
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError) as err:
        elliptic_solver._sparse_kernels()
    assert os.path.join(os.path.dirname(scipy.__file__), "sparse") in str(err.value)
    assert scipy.__version__ in str(err.value)


def test_solve_peak_memory_within_table_multiple():
    # The peak of a 2-D m = 257 nonsymmetric solve holds the operator table,
    # the rhs, the hierarchy, BiCGStab's x, r, p, v and scratch vector, and
    # two vectors of a half step: 2.34 times the table and rhs bytes,
    # whatever the step count; the bound leaves 0.11 of margin. The whole
    # CSR restriction of every level, in place of one band, reads 2.62
    # times, a 10-vector GMRES basis 3.15 and transient copies in the
    # products and the sweeps 3.50; a CSR copy of the operator and an R @ A
    # intermediate, as the sparse-product hierarchy held, add 0.64.
    rng = np.random.default_rng(0)
    prob = _nonsymmetric(random_problem(make_grid(2, 1.0, 257), rng), rng)
    system = assemble(prob)
    held = system.table.nbytes + system.rhs.nbytes
    del system
    tracemalloc.start()
    try:
        solve_dirichlet(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.45 * held, f"peak {peak / 1e6:.1f} MB = {peak / held:.2f} x table and rhs"


def test_transfers_take_the_same_few_bands_at_any_size():
    # every level's R and R^T share one band of at most about BLOCK_ROWS
    # nonzeros, plus an even axis's one-slab tail: 1.74 MB over all levels
    # of 2-D m = 1025, where the whole CSR restrictions take 38.9 MB
    transfers = [elliptic_solver._transfers(per_axis, 2) for per_axis in _level_sizes(2, 1025)]
    held = {
        id(a): a.nbytes
        for products in transfers for product in products for _, _, arrays in product[3] for a in arrays
    }
    assert sum(held.values()) < 2e6, sum(held.values())


def test_nonsymmetric_peak_independent_of_step_count(monkeypatch):
    # BiCGStab holds a fixed set of vectors, so a looser tolerance that
    # stops in fewer steps leaves the peak within one N-vector; the residual
    # gate is loosened with it so the shorter solve returns
    rng = np.random.default_rng(0)
    prob = _nonsymmetric(random_problem(make_grid(2, 1.0, 257), rng), rng)
    monkeypatch.setattr(elliptic_solver, "SOLVE_RTOL", 1e-6)
    runs = []
    for rtol in (1e-13, 1e-8):
        monkeypatch.setattr(elliptic_solver, "KRYLOV_RTOL", rtol)
        tracemalloc.start()
        try:
            steps = solve_dirichlet(prob).diagnostics["iterations"]
            runs.append((steps, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
    (steps, peak), (fewer, lower) = runs
    assert fewer < steps, runs
    assert abs(peak - lower) <= 255**2 * 8, runs


def test_solve_leaves_no_memory_behind():
    # The hierarchy, transfer operators included, is built for each solve
    # and freed with it; a cache of the m = 129 transfers would hold 540 kB.
    # The warm-up solve at m = 33 makes any first-call allocations.
    solve_dirichlet(random_problem(make_grid(2, 1.0, 33), np.random.default_rng(1)))
    prob = random_problem(make_grid(2, 1.0, 129), np.random.default_rng(2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sol = solve_dirichlet(prob)
        del sol
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left <= 20e3, left


@pytest.mark.skipif(not os.path.exists("/proc/self/status") or elliptic_solver._MALLOC_TRIM is None,
                    reason="reads VmRSS under glibc")
def test_solve_returns_its_freed_memory():
    # A solve's vectors and hierarchy go back to the system when it returns,
    # whatever the heap layout: after 2-D m = 65, 129 and 257 solves the
    # resident set is within 3 MB of that before them (measured 1.6 MB);
    # left to glibc's own trimming, 5.4 MB stayed. In a child, so that no
    # other test's heap is measured.
    child = """
import numpy as np
from schauderlab.domain_grid import make_grid
from schauderlab.elliptic_solver import solve_dirichlet
from schauderlab.generators import random_problem
def rss():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmRSS")) * 1024
probs = [random_problem(make_grid(2, 1.0, m), np.random.default_rng(m)) for m in (65, 129, 257)]
solve_dirichlet(probs[0])
before = rss()
for prob in probs:
    solve_dirichlet(prob)
print(rss() - before)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 3e6, done.stdout


def test_solve_builds_each_levels_dia_blocks_once(monkeypatch):
    # the Krylov products and the finest multigrid level share one
    # operator: one _operator call per level, finest first
    per_axis, depth = [], []
    operator, multigrid_levels = elliptic_solver._operator, elliptic_solver._multigrid_levels

    def counting(offsets, table, size):
        per_axis.append(size)
        return operator(offsets, table, size)

    def recording(*args):
        levels, coarse = multigrid_levels(*args)
        depth.append(len(levels))
        return levels, coarse

    monkeypatch.setattr(elliptic_solver, "_operator", counting)
    monkeypatch.setattr(elliptic_solver, "_multigrid_levels", recording)
    solve_dirichlet(random_problem(make_grid(2, 1.0, 65), np.random.default_rng(4)))
    assert per_axis == [63, 31, 15]
    assert depth == [len(per_axis)]


@pytest.mark.parametrize("symmetric", [True, False])
def test_zero_data_zero_solution(grid65, symmetric):
    zero = Field.zeros(grid65)
    prob = EllipticProblem(
        A=trig_coefficient_field(grid65, np.random.default_rng(1), beta=0.2, symmetric=symmetric),
        f=zero, F=VecField.zeros(grid65), g=zero,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_dirichlet(prob)
    assert sol.diagnostics["symmetric"] == symmetric
    assert sol.diagnostics["iterations"] == 0
    assert sol.diagnostics["residual"] == 0.0
    assert not sol.u.values.any()


@pytest.mark.parametrize("symmetric", [True, False])
def test_iteration_cap_raises_stagnation(monkeypatch, grid65, symmetric):
    monkeypatch.setattr(elliptic_solver, "KRYLOV_MAXITER", 1)
    rng = np.random.default_rng(2)
    prob = random_problem(grid65, rng)
    if not symmetric:
        prob = _nonsymmetric(prob, rng)
    with pytest.raises(SolverStagnationError) as err:
        solve_dirichlet(prob)
    diagnostics = err.value.diagnostics
    assert diagnostics["method"] == ("mg-cg" if symmetric else "mg-bicgstab")
    assert diagnostics["iterations"] == 1
    assert diagnostics["residual"] > SOLVE_RTOL


@pytest.mark.parametrize(
    "matrix, rhs, steps",
    [
        # (rhs, A rhs) = 0: alpha would divide by zero in step one
        ([[0.0, 1.0], [-1.0, 0.0]], [1.0, 2.0], 1),
        # a_12 a_21 + a_13 a_31 = 0 leaves the step-one residual orthogonal
        # to rhs = e_1: rho = 0 in step two
        ([[2.0, 1.0, 1.0], [1.0, 3.0, 0.0], [-1.0, 1.0, 2.0]], [1.0, 0.0, 0.0], 2),
    ],
    ids=["skew-alpha", "orthogonal-rho"],
)
def test_bicgstab_stops_on_breakdown(matrix, rhs, steps):
    matrix, rhs = np.array(matrix), np.array(rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, done = elliptic_solver._bicgstab(lambda z, out=None: matrix @ z, rhs, np.copy, 1e-13)
    assert done == steps
    assert elliptic_solver._norm(rhs - matrix @ x) > 1e-13


def test_breakdown_raises_stagnation(monkeypatch, grid65):
    # a zero preconditioner gives v = 0, so (rhs, v) = 0 in step one
    monkeypatch.setattr(elliptic_solver, "_vcycle", lambda levels, coarse, r: np.zeros_like(r))
    rng = np.random.default_rng(2)
    prob = _nonsymmetric(random_problem(grid65, rng), rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverStagnationError) as err:
            solve_dirichlet(prob)
    diagnostics = err.value.diagnostics
    assert diagnostics["method"] == "mg-bicgstab"
    assert diagnostics["iterations"] == 1
    assert diagnostics["residual"] == 1.0


def test_three_dimensional_solve():
    grid = make_grid(3, 1.0, 17)
    gb = Field.from_function(grid, lambda x, y, z: x**2 - y**2)
    prob = EllipticProblem(
        A=CoefficientField.identity(grid), f=Field.zeros(grid),
        F=VecField.zeros(grid), g=gb,
    )
    sol = solve_dirichlet(prob)
    assert np.abs(sol.u.values - gb.values).max() <= 1e-10
    from schauderlab.generators import trig_coefficient_field

    A3 = trig_coefficient_field(grid, np.random.default_rng(0), beta=0.1)
    prob3 = EllipticProblem(
        A=A3, f=Field.full(grid, 1.0), F=VecField.zeros(grid), g=Field.zeros(grid)
    )
    assert solve_dirichlet(prob3).diagnostics["residual"] <= 1e-10


def test_weak_residual_refinement():
    residuals = []
    for m in (129, 257):
        grid = make_grid(2, 1.0, m)
        prob, _ = sine_forcing_problem(grid)
        sol = solve_dirichlet(prob)
        phi = bump_field(grid, 0.6, center=(0.2, -0.1))
        residuals.append(weak_residual(sol.u, prob, phi))
    assert residuals[0] / residuals[1] > 2.5


def test_weak_residual_constant_solution(grid65):
    A = CoefficientField.identity(grid65)
    prob = EllipticProblem(
        A=A, f=Field.zeros(grid65), F=VecField.zeros(grid65), g=Field.full(grid65, 1.0)
    )
    sol = solve_dirichlet(prob)
    phi = bump_field(grid65, 0.5)
    box = box_region(grid65)
    scale = lp_norm(sol.u, 2, box) * hk_norm(phi, 1, ball_region(grid65, 0.0, 0.6))
    assert weak_residual(sol.u, prob, phi) <= 1e-12 * scale


def test_weak_residual_zero_test_function(rng, grid65):
    prob = random_problem(grid65, rng)
    sol = solve_dirichlet(prob)
    assert weak_residual(sol.u, prob, Field.zeros(grid65)) == 0.0


def test_weak_residual_support_violation(rng, grid65):
    prob = random_problem(grid65, rng)
    sol = solve_dirichlet(prob)
    with pytest.raises(SupportViolationError):
        weak_residual(sol.u, prob, Field.full(grid65, 1.0))


def test_bilinear_bound(rng, grid65):
    # |sum A grad u . grad phi| <= n L ||grad u|| ||grad phi||
    prob = random_problem(grid65, rng)
    sol = solve_dirichlet(prob)
    phi = bump_field(grid65, 0.5)
    hn = grid65.h**2
    gu = gradient(sol.u).components
    gphi = gradient(phi).components
    a_grad = np.einsum("ij...,j...->i...", prob.A.entries, gu)
    lhs = abs(float((a_grad * gphi).sum()) * hn)
    box = box_region(grid65)
    rhs = (
        2 * prob.A.L
        * lp_norm(gradient(sol.u).magnitude(), 2, box)
        * lp_norm(gradient(phi).magnitude(), 2, box)
    )
    assert lhs <= rhs * (1 + 1e-12)


def test_coercivity(rng, grid65):
    # sum A grad phi . grad phi >= lam ||grad phi||^2 - O(h) corrections
    A = trig_coefficient_field(grid65, rng, beta=0.2)
    phi = bump_field(grid65, 0.5)
    hn = grid65.h**2
    gphi = gradient(phi).components
    a_grad = np.einsum("ij...,j...->i...", A.entries, gphi)
    quad = float((a_grad * gphi).sum()) * hn
    box = box_region(grid65)
    grad_sq = lp_norm(gradient(phi).magnitude(), 2, box) ** 2
    h1_sq = hk_norm(phi, 1, ball_region(grid65, 0.0, 0.9)) ** 2
    assert quad >= A.lam * grad_sq - 5.0 * grid65.h * h1_sq
