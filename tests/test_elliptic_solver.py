import gc
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
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
    assert sol.diagnostics["method"] == "mg-gmres"
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
    # GMRES grows its basis one vector per iteration instead of holding
    # KRYLOV_MAXITER + 1 vectors from the start.
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
    assert peaks[1] <= 1.5 * peaks[0], peaks


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


@pytest.mark.parametrize(
    "n, sizes", [(2, (*range(3, 42), 63, 127, 255)), (3, (*range(3, 34), 63))], ids=["2d", "3d"]
)
def test_restriction_matches_kron_reference(n, sizes):
    # bit for bit, dtypes included; an even per_axis (m = 43 coarsens
    # 41 -> 20 -> 10) has a last coarse node with no right neighbour
    for per_axis in sizes:
        R, ref = elliptic_solver._restriction(per_axis, n), _kron_restriction(per_axis, n)
        assert R.shape == ref.shape, per_axis
        for name in ("indptr", "indices", "data"):
            got, want = getattr(R, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (per_axis, name)


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
    blocks = elliptic_solver._dia_blocks(system.offsets, system.table, m - 2)
    assert len(blocks) == -(-system.rhs.size // block_rows)
    assert all(block.data is system.table for block in blocks)  # views, no copies
    x = np.random.default_rng(0).standard_normal(system.rhs.size)
    x[::5], x[1::7] = 0.0, -0.0
    got = elliptic_solver._matvec(blocks, x)
    assert got.tobytes() == (system.matrix @ x).tobytes()


def _spgemm_levels(matrix, per_axis: int, n: int) -> tuple:
    """The Galerkin hierarchy as sparse products build it: levels
    [(A x, P, R, weighted inverse diagonal), ...] and the coarsest
    operator, with R A R^T formed as (R @ A) @ R.T."""
    levels = []
    while matrix.shape[0] > elliptic_solver.COARSEST_UNKNOWNS:
        R = elliptic_solver._restriction(per_axis, n)
        levels.append((matrix.__matmul__, R.T, R, elliptic_solver.JACOBI_WEIGHT / matrix.diagonal()))
        matrix = R @ matrix @ R.T
        per_axis //= 2
    return levels, matrix


@pytest.mark.parametrize("kind", STENCIL_KINDS)
@pytest.mark.parametrize("n, m", STENCIL_GRIDS)
def test_closed_form_levels_match_spgemm_reference(n, m, kind):
    # m = 43 coarsens 41 -> 20 -> 10, through an even per_axis
    system = assemble(_stencil_problem(n, m, kind))
    levels, coarsest = _spgemm_levels(system.matrix, m - 2, n)
    references = [level[0].__self__ for level in levels[1:]] + [coarsest]
    offsets, table, per_axis = system.offsets, system.table, m - 2
    for ref in references:
        offsets, table = elliptic_solver._galerkin(offsets, table, per_axis)
        per_axis //= 2
        got = elliptic_solver._dia(offsets, table, per_axis).tocsr()
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
    view = elliptic_solver._dia(offsets, table, per_axis)
    assert len(view.offsets) < len(offsets)
    want = _geometric_dense(offsets, table, per_axis)
    assert view.toarray().tobytes() == want.tobytes()  # through scipy's tocsr


@pytest.mark.parametrize("n, m, symmetric", ITERATION_CASES)
def test_iterations_equal_spgemm_reference(n, m, symmetric):
    prob = _iteration_problem(n, m, symmetric)
    system = assemble(prob)
    levels, coarsest = _spgemm_levels(system.matrix, m - 2, n)
    coarse = elliptic_solver._dense_inverse(coarsest.toarray())
    krylov = elliptic_solver._cg if symmetric else elliptic_solver._gmres
    _, iterations = krylov(
        system.matrix.__matmul__,
        system.rhs,
        lambda r: elliptic_solver._vcycle(levels, coarse, r),
        elliptic_solver.KRYLOV_RTOL * elliptic_solver._norm(system.rhs),
    )
    assert solve_dirichlet(prob).diagnostics["iterations"] == iterations


def test_solve_builds_no_csr_operator(monkeypatch):
    # scipy's toarray goes through tocsr, so the densified coarsest level is
    # the one CSR that a solve makes
    calls = []
    for cls in (sp.coo_matrix, sp.csc_matrix, sp.csr_matrix, sp.dia_matrix):
        def recorded(self, *args, tocsr=cls.tocsr, **kwargs):
            calls.append((type(self).__name__, self.shape[0]))
            return tocsr(self, *args, **kwargs)

        monkeypatch.setattr(cls, "tocsr", recorded)
    for symmetric in (True, False):
        sol = solve_dirichlet(_iteration_problem(2, 65, symmetric))
        assert sol.diagnostics["residual"] <= SOLVE_RTOL
    assert calls == [("dia_matrix", 49)] * 2  # the 7^2 coarsest level of each solve


def test_solve_peak_memory_within_table_multiple():
    # The peak of a 2-D m = 257 nonsymmetric solve holds the operator table,
    # the rhs, the GMRES basis and the hierarchy: 3.50 times the table and
    # rhs bytes. A CSR copy of the operator and an R @ A intermediate, as
    # the sparse-product hierarchy held, lift it to 4.14 times.
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
    assert peak <= 3.8 * held, f"peak {peak / 1e6:.1f} MB = {peak / held:.2f} x table and rhs"


def test_solve_leaves_no_memory_behind():
    # The hierarchy, transfer operators included, is built for each solve
    # and freed with it; a cache of the m = 129 operators would hold over
    # 400 kB. The warm-up solve at m = 33 makes any first-call allocations.
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


def test_solve_builds_each_levels_dia_blocks_once(monkeypatch):
    # the Krylov products and the finest multigrid level share one set of
    # blocks: one _dia_blocks call per level, finest first
    per_axis, depth = [], []
    dia_blocks, multigrid_levels = elliptic_solver._dia_blocks, elliptic_solver._multigrid_levels

    def counting(offsets, table, size):
        per_axis.append(size)
        return dia_blocks(offsets, table, size)

    def recording(*args):
        levels, coarse = multigrid_levels(*args)
        depth.append(len(levels))
        return levels, coarse

    monkeypatch.setattr(elliptic_solver, "_dia_blocks", counting)
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
    assert diagnostics["method"] == ("mg-cg" if symmetric else "mg-gmres")
    assert diagnostics["iterations"] == 1
    assert diagnostics["residual"] > SOLVE_RTOL


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
    scale = lp_norm(sol.u, 2, box).value * hk_norm(phi, 1, ball_region(grid65, 0.0, 0.6)).value
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
        * lp_norm(gradient(sol.u).magnitude(), 2, box).value
        * lp_norm(gradient(phi).magnitude(), 2, box).value
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
    grad_sq = lp_norm(gradient(phi).magnitude(), 2, box).value ** 2
    h1_sq = hk_norm(phi, 1, ball_region(grid65, 0.0, 0.9)).value ** 2
    assert quad >= A.lam * grad_sq - 5.0 * grid65.h * h1_sq
