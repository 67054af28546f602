"""The CSR assembly against the COO assembly it replaced, and its memory.

``_coo_assemble`` is the earlier implementation, kept here as the reference:
per-offset COO triplets, ``tocsr`` and ``eliminate_zeros``, with the
Dirichlet moves applied offset by offset in stencil insertion order. Every
comparison is bytewise.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from schauderlab.domain_grid import make_grid
from schauderlab.elliptic_solver import CoefficientField, EllipticProblem, assemble
from schauderlab.field_calculus import divergence
from schauderlab.generators import random_problem, sup_bound_problem, trig_coefficient_field


def _coo_assemble(problem):
    grid = problem.grid
    n, h = grid.n, grid.h
    ent = problem.A.entries
    inv_h2 = 1.0 / h**2
    inv_4h2 = 0.25 * inv_h2
    weights = {}

    def add(offset, w):
        if offset in weights:
            weights[offset] = weights[offset] + w
        else:
            weights[offset] = w.copy()

    zero = (0,) * n
    for j in range(n):
        a = ent[j, j]
        face_plus = 0.5 * (a + np.roll(a, -1, axis=j))
        face_minus = 0.5 * (a + np.roll(a, 1, axis=j))
        e_j = tuple(int(k == j) for k in range(n))
        m_j = tuple(-int(k == j) for k in range(n))
        add(e_j, -face_plus * inv_h2)
        add(m_j, -face_minus * inv_h2)
        add(zero, (face_plus + face_minus) * inv_h2)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a = ent[i, j]
            a_ip = np.roll(a, -1, axis=i)
            a_im = np.roll(a, 1, axis=i)
            for si, sj, sign in ((+1, +1, -1.0), (+1, -1, +1.0), (-1, +1, +1.0), (-1, -1, -1.0)):
                off = tuple(si * int(k == i) + sj * int(k == j) for k in range(n))
                add(off, sign * (a_ip if si > 0 else a_im) * inv_4h2)

    flat = grid.interior_mask(1).ravel()
    ids = -np.ones(grid.num_nodes, dtype=np.int64)
    ids[flat] = np.arange(int(flat.sum()))
    flat_rows = np.flatnonzero(flat)
    row_ids = ids[flat_rows]
    n_int = len(flat_rows)
    rhs = (problem.f.values + divergence(problem.F).values).ravel()[flat_rows].copy()
    rows, cols, vals = [], [], []
    for offset, w in weights.items():
        shift = sum(o * grid.m ** (n - 1 - ax) for ax, o in enumerate(offset))
        targets = flat_rows + shift
        wvals = w.ravel()[flat_rows]
        target_ids = ids[targets]
        inside = target_ids >= 0
        rows.append(row_ids[inside])
        cols.append(target_ids[inside])
        vals.append(wvals[inside])
        if not inside.all():
            np.add.at(
                rhs, row_ids[~inside], -wvals[~inside] * problem.g.values.ravel()[targets[~inside]]
            )
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n_int, n_int)
    ).tocsr()
    matrix.eliminate_zeros()
    return matrix, rhs


def _with_coefficient(A, rng):
    data = random_problem(A.grid, rng)
    return EllipticProblem(A=A, f=data.f, F=data.F, g=data.g, p=data.p, q=data.q)


CASES = {
    "2d-sup-bound-m65": lambda rng: sup_bound_problem(make_grid(2, 1.0, 65), rng),
    "2d-identity-m129": lambda rng: _with_coefficient(
        CoefficientField.identity(make_grid(2, 1.0, 129)), rng
    ),
    "2d-random-symmetric-m129": lambda rng: random_problem(make_grid(2, 1.0, 129), rng),
    "2d-nonsymmetric-m65": lambda rng: _with_coefficient(
        trig_coefficient_field(make_grid(2, 1.0, 65), rng, symmetric=False), rng
    ),
    "3d-identity-m17": lambda rng: _with_coefficient(
        CoefficientField.identity(make_grid(3, 1.0, 17)), rng
    ),
    "3d-random-m33": lambda rng: random_problem(make_grid(3, 1.0, 33), rng),
}


def _bytes(arr):
    return arr.dtype.str, arr.shape, arr.tobytes()


@pytest.mark.parametrize("case", CASES)
def test_csr_assembly_matches_coo_reference(case):
    problem = CASES[case](np.random.default_rng(7))
    system = assemble(problem)
    matrix, rhs = _coo_assemble(problem)
    assert system.matrix.shape == matrix.shape
    assert _bytes(system.matrix.indptr) == _bytes(matrix.indptr)
    assert _bytes(system.matrix.indices) == _bytes(matrix.indices)
    assert _bytes(system.matrix.data) == _bytes(matrix.data)
    assert _bytes(system.rhs) == _bytes(rhs)
    if case == "2d-sup-bound-m65":
        # the corner rows carry three Dirichlet moves each
        assert np.abs(problem.g.values).min() > 0


@pytest.mark.parametrize("n,m", [(2, 257), (3, 33)])
def test_assembly_peak_memory(n, m):
    problem = random_problem(make_grid(n, 1.0, m), np.random.default_rng(3))
    tracemalloc.start()
    try:
        system = assemble(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = system.matrix
    returned = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes + system.rhs.nbytes
    assert peak <= 4 * returned, f"peak {peak / 1e6:.1f} MB = {peak / returned:.2f} x returned"
