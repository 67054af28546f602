"""Assembly and solution of the discrete Dirichlet problem
-div(A grad u) = f + div F on the box, with certified ellipticity.

Discretization is conservative: diagonal coefficients enter through
face-averaged fluxes (the classical 3-point stencil per axis), off-diagonal
coefficients through averaged cross stencils, so that for symmetric A the
assembled operator is symmetric to machine precision and summation-by-parts
identities survive discretization up to O(h).

The operator is kept as a stencil table: one weight row per offset, in the
column layout of ``scipy.sparse.dia_matrix``, and every other form of it
is derived from one dia_matrix view of that table (_dia). A solve applies
row blocks of the view, builds each coarser multigrid operator R A R^T
from the finer table in closed form, one axis at a time, and inverts the
coarsest, of at most COARSEST_UNKNOWNS rows, from the view's dense array.
No CSR copy of a finer operator and no product of two sparse matrices is
formed; ``LinearSystem.matrix`` is scipy's CSR conversion of the whole
view, for a caller that asks for it.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from .domain_grid import Grid
from .errors import InadmissibleExponentsError, NotEllipticError, SolverStagnationError, SupportViolationError
from .field_calculus import Field, VecField, _band_clear, divergence, gradient

# Required relative algebraic residual of any returned solution.
SOLVE_RTOL = 1e-10

# Krylov tolerance and iteration cap. With the multigrid preconditioner
# 1e-13 takes 10-14 iterations at any m; 1e-11 would leave the weak
# residual of a constant solution above 1e-12.
KRYLOV_RTOL = 1e-13
KRYLOV_MAXITER = 100

# Damped Jacobi weight, sweeps on each side of the coarse correction, and
# the largest level inverted densely. On grids of m = 2^k + 1 nodes per
# axis coarsening stops at 49 unknowns in 2-D and 27 in 3-D, where the
# numpy Gauss-Jordan inverse costs under 1 ms.
JACOBI_WEIGHT = 0.8
SMOOTHING_SWEEPS = 2
COARSEST_UNKNOWNS = 100

# Full-weighting restriction along one axis: coarse node C is fine node
# 2C + 1 and reads fine nodes 2C + a, a = 0, 1, 2, with weight r_a. In the
# coarse operator R A R^T the weight between coarse row C - c and column C
# (axis offset c) collects, for each (a, b) with |2c + b - a| <= 1, r_a r_b
# times the fine weight between fine row 2(C - c) + a and column 2C + b,
# whose axis offset is 2c + b - a. Terms: (fine offset, b, r_a r_b).
_FULL_WEIGHTING = (0.5, 1.0, 0.5)
_GALERKIN_TERMS = {
    c: tuple(
        (2 * c + b - a, b, _FULL_WEIGHTING[a] * _FULL_WEIGHTING[b])
        for a in range(3)
        for b in range(3)
        if abs(2 * c + b - a) <= 1
    )
    for c in (-1, 0, 1)
}

# Rows per dia_matrix block of an operator: a block's slice of the result
# stays in cache while every diagonal adds into it. One unblocked
# dia_matrix is slower than CSR at m = 513.
BLOCK_ROWS = 2**15

# Screen tolerance, relative to L. A node is a candidate when its screened
# value lies within SCREEN_TOL of the screened extreme, which misses no node
# attaining the LAPACK extreme as long as each screened value is within
# SCREEN_TOL/2 of LAPACK's. The 2-D form (mean -/+ hypot) is good to a few
# ulps, and LAPACK to a few eps. Smith's form loses accuracy only near a
# repeated eigenvalue, where acos near +-1 turns an error d in det(B)/2 into
# sqrt(2d) in phi. With |B_ij| <= sqrt(6), d stays under about 50 eps, so
# phi is off by < 5e-8 and an eigenvalue by 2p * 5e-8 < 1.3e-7 (p <= 1.23
# after scaling). Measured: at most 1.7e-8 on 928 000 rotations of
# near-degenerate diagonal matrices.
SCREEN_TOL = 1e-6


class CoefficientField:
    """Matrix-valued coefficient A(x), not necessarily symmetric.

    Carries certified ellipticity constants: lam and Lam are the extreme
    nodal eigenvalues of the symmetric part, L the nodal sup of |a_ij|.
    Optional regularity certificates (Lipschitz or Holder bounds on the
    entries) gate the estimates that need them.
    """

    __slots__ = (
        "grid", "entries", "lam", "Lam", "L", "is_symmetric",
        "lipschitz_bound", "holder_alpha", "holder_bound",
    )

    def __init__(self, grid: Grid, entries):
        entries = np.asarray(entries, dtype=float)
        if entries.shape != (grid.n, grid.n) + grid.shape:
            raise ValueError(
                f"entries shape {entries.shape} != {(grid.n, grid.n) + grid.shape}"
            )
        if not np.isfinite(entries).all():
            raise ValueError("coefficient entries must be finite")
        entries.setflags(write=False)
        self.grid = grid
        self.entries = entries
        self.lam, self.Lam, self.L = validate_ellipticity(self)
        # the entries are read-only, so symmetry is decided once
        self.is_symmetric = all(
            np.abs(entries[i, j] - entries[j, i]).max() <= 1e-14 * max(1.0, self.L)
            for i in range(grid.n)
            for j in range(i)
        )
        self.lipschitz_bound = None
        self.holder_alpha = None
        self.holder_bound = None

    @classmethod
    def identity(cls, grid: Grid) -> "CoefficientField":
        e = np.zeros((grid.n, grid.n) + grid.shape)
        for i in range(grid.n):
            e[i, i] = 1.0
        return cls(grid, e)

    @classmethod
    def from_constant(cls, grid: Grid, matrix) -> "CoefficientField":
        matrix = np.asarray(matrix, dtype=float)
        e = np.empty((grid.n, grid.n) + grid.shape)
        for i in range(grid.n):
            for j in range(grid.n):
                e[i, j] = matrix[i, j]
        return cls(grid, e)

    def set_lipschitz_certificate(self, bound: float) -> None:
        self.lipschitz_bound = float(bound)

    def set_holder_certificate(self, alpha: float, bound: float) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("certificate exponent must lie in (0, 1]")
        self.holder_alpha = float(alpha)
        self.holder_bound = float(bound)


def _screen_eigenvalues(ent: np.ndarray, L: float) -> tuple:
    """Closed-form (smallest, largest) nodal eigenvalues of the symmetric
    part of ent / L, ent of shape (n, n, N); accurate to SCREEN_TOL."""
    n = ent.shape[0]
    s = ent / L  # every entry in [-1, 1], so nothing below can overflow

    def sym(i, j):
        return s[i, i] if i == j else 0.5 * (s[i, j] + s[j, i])

    if n == 2:
        a, b, d = sym(0, 0), sym(0, 1), sym(1, 1)
        mean = 0.5 * (a + d)
        rad = np.hypot(0.5 * (a - d), b)
        return mean - rad, mean + rad
    # O. K. Smith, "Eigenvalues of a symmetric 3x3 matrix", Comm. ACM 4 (1961):
    # with q = tr/3 and B = (S - qI)/p, p = sqrt(|S - qI|_F^2 / 6), the
    # eigenvalues are q + 2p cos(phi + 2 pi k/3), phi = acos(det(B)/2)/3.
    q = (s[0, 0] + s[1, 1] + s[2, 2]) / 3.0
    d0, d1, d2 = s[0, 0] - q, s[1, 1] - q, s[2, 2] - q
    b01, b02, b12 = sym(0, 1), sym(0, 2), sym(1, 2)
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0)
    # p = 0 only where S - qI vanishes (up to underflow); det(B) is then
    # (near) 0 and both eigenvalues read q
    p_safe = np.where(p > 0, p, 1.0)
    d0, d1, d2, b01, b02, b12 = (x / p_safe for x in (d0, d1, d2, b01, b02, b12))
    det = d0 * (d1 * d2 - b12 * b12) - b01 * (b01 * d2 - b12 * b02) + b02 * (b01 * b12 - d1 * b02)
    phi = np.arccos(np.clip(0.5 * det, -1.0, 1.0)) / 3.0
    return q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0), q + 2.0 * p * np.cos(phi)


def validate_ellipticity(A: CoefficientField) -> tuple:
    """Extreme eigenvalues of the symmetric part plus the entry sup.

    Fails (reporting the offending node) if the smallest nodal eigenvalue of
    (A + A^T)/2 is not strictly positive. The antisymmetric part never enters
    the quadratic form, so only the symmetric part is certified.

    A closed-form screen picks the candidate nodes, those within SCREEN_TOL*L
    of either extreme; lam, Lam and the node are LAPACK's values there, the
    same as an eigvalsh call on every node would give. A candidate whose
    entries equal the first candidate's bit for bit is not sent to LAPACK,
    so a constant field costs one call.
    """
    grid = A.grid
    n = grid.n
    ent = A.entries.reshape(n, n, -1)
    L = float(max(ent.max(), -ent.min()))
    lo, hi = _screen_eigenvalues(ent, L or 1.0)  # L = 0: the zero field
    cand = np.flatnonzero((lo <= lo.min() + SCREEN_TOL) | (hi >= hi.max() - SCREEN_TOL))
    # Every node whose LAPACK value attains an extreme is a candidate, and no
    # candidate passes beyond either extreme, so argmin over the candidates
    # in flat order finds the node np.argmin over all nodes would. A
    # candidate bitwise equal to the first has its eigenvalues and comes
    # later in flat order, so it can be dropped.
    c = ent.reshape(n * n, -1).take(cand, axis=1)
    fresh = np.zeros(cand.size, dtype=bool)
    for row in c.view(np.int64):
        fresh |= row != row[0]
    fresh[0] = True
    cand, c = cand[fresh], c[:, fresh].reshape(n, n, -1)
    eigs = np.linalg.eigvalsh(0.5 * (c + c.transpose(1, 0, 2)).transpose(2, 0, 1))
    lam_pos = int(np.argmin(eigs[:, 0]))
    lam_idx = int(cand[lam_pos])
    lam = float(eigs[lam_pos, 0])
    Lam = float(eigs[:, -1].max())
    if lam <= 0:
        node = np.unravel_index(lam_idx, grid.shape)
        coords = tuple(float(grid.axis[i]) for i in node)
        raise NotEllipticError(
            f"symmetric part has eigenvalue {lam:.3e} <= 0 at node {coords}",
            node=node,
            eigenvalue=lam,
        )
    return lam, Lam, L


def require_admissible(n: int, p: float, q: float) -> None:
    """Raise unless p > n/2 and q > n, the hypothesis of every interior
    estimate on (f, F), naming the failing exponent."""
    if not p > n / 2:
        raise InadmissibleExponentsError(f"need p > n/2 = {n / 2}, got {p}", failing_term="p")
    if not q > n:
        raise InadmissibleExponentsError(f"need q > n = {n}, got {q}", failing_term="q")


@dataclass
class EllipticProblem:
    """Data bundle (A, f, F, Dirichlet boundary g, integrability exponents).

    Exponents default to (p, q) = (2, 4), admissible for n in {2, 3}. The
    boundary field g is read only on the boundary nodes. ``certificates``
    carries optional data-regularity bounds (keys like "F_holder",
    "F_lipschitz", "f_holder") that gate the estimates requiring them.
    """

    A: CoefficientField
    f: Field
    F: VecField
    g: Field
    p: float = 2.0
    q: float = 4.0
    certificates: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = self.A.grid
        for part in (self.f, self.F, self.g):
            if part.grid != grid:
                raise ValueError("problem data must share one grid")
        require_admissible(grid.n, self.p, self.q)

    @property
    def grid(self) -> Grid:
        return self.A.grid

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for arr in (self.A.entries, self.f.values, self.F.components, self.g.values):
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(np.float64([self.p, self.q]).tobytes())
        return digest.hexdigest()[:12]

    def scaled(self, c: float) -> "EllipticProblem":
        """Same operator, data (f, F, g) scaled by c; the solution scales too.

        Every certificate bounds a norm or seminorm of f or F, so each is
        multiplied by |c|."""
        certs = {key: abs(c) * bound for key, bound in self.certificates.items()}
        return EllipticProblem(
            A=self.A, f=c * self.f, F=c * self.F, g=c * self.g,
            p=self.p, q=self.q, certificates=certs,
        )


@dataclass
class LinearSystem:
    """The assembled operator as a stencil weight table, and its rhs.

    ``table[k]`` is the diagonal of flat shift ``_flat_shift(offsets[k],
    m - 2)`` in the column layout that ``scipy.sparse.dia_matrix`` reads:
    at column j it holds the weight of u_j in row j - shift. Offsets run in
    lexicographic order, which is increasing shift. A weight whose row or
    column would be a boundary node is stored as 0.
    """

    offsets: tuple
    table: np.ndarray
    rhs: np.ndarray
    grid: Grid

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The operator in CSR with the zero weights dropped: scipy's
        conversion of the dia_matrix view a solve applies, made the first
        time it is read. A solve never reads it."""
        return _dia(self.offsets, self.table, self.grid.m - 2).tocsr()


def _at(values: np.ndarray, offset: tuple) -> np.ndarray:
    """View of values(x + offset) over the interior nodes x."""
    return values[tuple(slice(1 + o, m - 1 + o) for o, m in zip(offset, values.shape))]


def _reach(offset: tuple, per_axis: int) -> tuple:
    """Slices of the nodes y of a (per_axis)^n grid for which y - offset is
    a node too: the columns that a row reaches through offset."""
    return tuple(slice(max(o, 0), per_axis + min(o, 0)) for o in offset)


def _flat_shift(offset: tuple, per_axis: int) -> int:
    """Column minus row of offset in the lexicographic numbering of a
    (per_axis)^n grid."""
    shift = 0
    for o in offset:
        shift = shift * per_axis + o
    return shift


def assemble(problem: EllipticProblem) -> LinearSystem:
    """Stencil table of the operator on the interior unknowns, Dirichlet
    rows eliminated.

    Interior row for node x:
      diagonal a_jj: face-averaged fluxes, three points per axis;
      off-diagonal a_ij: averaged central cross stencil on x +/- e_i +/- e_j.
    Right side: f + central-difference div F, plus boundary moves of g.

    Each offset's weights are first laid out by row, where the boundary
    moves read them, and then moved in place to the column layout of
    LinearSystem; the weights of boundary neighbours are left behind.
    """
    grid = problem.grid
    n, h = grid.n, grid.h
    ent = problem.A.entries
    inv_h2 = 1.0 / h**2
    inv_4h2 = 0.25 * inv_h2

    # every stencil offset: at most two nonzero unit steps
    offsets = tuple(o for o in itertools.product((-1, 0, 1), repeat=n) if sum(map(abs, o)) <= 2)
    column = {o: k for k, o in enumerate(offsets)}
    per_axis = grid.m - 2
    interior_shape = (per_axis,) * n
    table = np.empty((len(offsets),) + interior_shape)  # table[k][x]: weight of u(x + offsets[k]) in row x
    added = []  # offsets in first-add order, which orders the boundary moves

    def add(offset: tuple, a: np.ndarray, c: float):
        # adds a * c; c = +/-scale carries the sign, and rounds as +/-(a * scale)
        if offset in added:
            table[column[offset]] += a * c
        else:
            np.multiply(a, c, out=table[column[offset]])
            added.append(offset)

    def unit(axis: int, s: int) -> tuple:
        return tuple(s * int(k == axis) for k in range(n))

    zero = (0,) * n
    for j in range(n):
        a = _at(ent[j, j], zero)
        face_plus = 0.5 * (a + _at(ent[j, j], unit(j, +1)))   # coefficient on face x + e_j/2
        face_minus = 0.5 * (a + _at(ent[j, j], unit(j, -1)))  # coefficient on face x - e_j/2
        add(unit(j, +1), face_plus, -inv_h2)
        add(unit(j, -1), face_minus, -inv_h2)
        add(zero, face_plus + face_minus, inv_h2)

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for si, sj, sign in ((+1, +1, -1.0), (+1, -1, +1.0), (-1, +1, +1.0), (-1, -1, -1.0)):
                off = tuple(si * int(k == i) + sj * int(k == j) for k in range(n))
                add(off, _at(ent[i, j], unit(i, si)), sign * inv_4h2)  # a_ij(x +/- h e_i)

    rhs = _at(problem.f.values + divergence(problem.F).values, zero).flatten()
    rhs_grid = rhs.reshape(interior_shape)
    for offset in added:
        # rows whose neighbour x + offset is a boundary node move its
        # Dirichlet value to the rhs: one face per nonzero step, less the
        # faces of the steps before it
        weights, ghost = table[column[offset]], _at(problem.g.values, offset)
        rows = [slice(None)] * n
        for axis, o in enumerate(offset):
            if o:
                rows[axis] = -1 if o > 0 else 0
                face = tuple(rows)
                rhs_grid[face] += -weights[face] * ghost[face]
                rows[axis] = slice(0, -1) if o > 0 else slice(1, None)

    for offset, weights in zip(offsets, table):
        # row x -> column x + offset; a column no row reaches holds 0
        weights[_reach(offset, per_axis)] = weights[_reach(tuple(-o for o in offset), per_axis)]
        for axis, o in enumerate(offset):
            if o:
                weights[(slice(None),) * axis + (0 if o > 0 else -1,)] = 0.0

    return LinearSystem(offsets=offsets, table=table.reshape(len(offsets), -1), rhs=rhs, grid=grid)


@dataclass
class DiscreteSolution:
    """Solution field plus the generating problem and solver diagnostics."""

    u: Field
    problem: EllipticProblem
    diagnostics: dict = field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def scaled(self, c: float) -> "DiscreteSolution":
        """Exact by linearity: c*u solves the problem with data scaled by c."""
        return DiscreteSolution(u=c * self.u, problem=self.problem.scaled(c), diagnostics=dict(self.diagnostics))


def _dense_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a small nonsingular matrix by Gauss-Jordan elimination
    with partial pivoting.

    numpy ufuncs only: a BLAS or LAPACK inverse splits its work by thread,
    so its last bits would depend on the thread count.
    """
    size = matrix.shape[0]
    work = np.hstack([matrix, np.eye(size)])  # [A | I] -> [I | A^-1]
    for k in range(size):
        pivot = k + int(np.abs(work[k:, k]).argmax())
        if pivot != k:
            work[[k, pivot]] = work[[pivot, k]]
        row = work[k] / work[k, k]
        work -= np.multiply.outer(work[:, k], row)  # zeroes column k, row k too
        work[k] = row
    return work[:, size:].copy()


def _dia(offsets: tuple, table: np.ndarray, per_axis: int, start=0, rows=None) -> sp.dia_matrix:
    """Rows start .. start + rows (default: the rest) of the operator of a
    column-layout table, as a dia_matrix view of the table whose offsets
    are the shifts, increasing as the table's rows run, plus start.

    On an axis of one or two nodes (m = 3, or a coarse level of two)
    distinct offsets can share a shift. A column y is reached through at
    most one of them, since y - offset is a node for at most one, and the
    others hold 0 there; so the view holds their exact sum, in a new array.
    """
    shifts, which = np.unique([_flat_shift(offset, per_axis) for offset in offsets], return_inverse=True)
    size, data = table.shape[1], table
    if shifts.size < len(offsets):
        data = np.zeros((shifts.size, size))
        np.add.at(data, which, table)
    return sp.dia_matrix((data, shifts + start), shape=(size - start if rows is None else rows, size))


def _dia_blocks(offsets: tuple, table: np.ndarray, per_axis: int) -> list:
    """The operator of a column-layout table as _dia row blocks of at most
    BLOCK_ROWS rows, each a view of the whole table.

    A product with all blocks is the CSR product bit for bit: each row sums
    the same weights in the same increasing-column order, and the extra
    zero weights add +0 to a partial sum that starts at +0 and so is never
    -0.
    """
    size = table.shape[1]
    return [
        _dia(offsets, table, per_axis, start, min(BLOCK_ROWS, size - start))
        for start in range(0, size, BLOCK_ROWS)
    ]


def _matvec(blocks: list, x: np.ndarray) -> np.ndarray:
    """The product with x of the operator whose row blocks are blocks."""
    if len(blocks) == 1:
        return blocks[0] @ x
    return np.concatenate([block @ x for block in blocks])


def _restriction(per_axis: int, n: int) -> sp.csr_matrix:
    """Full-weighting restriction R = P^T from (per_axis)^n interior nodes
    to (per_axis // 2)^n, in CSR with sorted column indices.

    Coarse node c of an axis is fine node 2c + 1 and reads fine nodes 2c,
    2c + 1, 2c + 2 with weights _FULL_WEIGHTING. A row of R is the tensor
    product of its axes' rows: fine corner (2c_0, ..., 2c_{n-1}) plus the
    3^n offsets in lexicographic order, which is increasing column. On an
    even axis the last coarse node has no fine node 2c + 2, and those
    entries are dropped. Every weight is a power of two, so the products are
    exact. Index arithmetic runs in int32 on per-axis pieces whenever the
    nonzeros fit.
    """
    coarse = per_axis // 2
    rows, width = coarse**n, 3**n
    idx_dtype = np.int32 if rows * width < 2**31 else np.int64  # rows * width >= per_axis**n
    corner, offsets, weights = np.zeros(1, dtype=idx_dtype), np.zeros(1, dtype=idx_dtype), np.ones(1)
    for _ in range(n):
        corner = np.add.outer(corner * per_axis, 2 * np.arange(coarse, dtype=idx_dtype)).ravel()
        offsets = np.add.outer(offsets * per_axis, np.arange(3, dtype=idx_dtype)).ravel()
        weights = np.multiply.outer(weights, _FULL_WEIGHTING).ravel()
    cols = np.add.outer(corner, offsets)
    data = np.broadcast_to(weights, cols.shape)
    counts = np.full(rows, width)
    if per_axis % 2 == 0:
        keep = np.ones(cols.shape, dtype=bool)
        row, offset = np.arange(rows), np.arange(width)
        for d in range(n):
            last = (row // coarse**d) % coarse == coarse - 1
            keep &= ~np.logical_and.outer(last, (offset // 3**d) % 3 == 2)
        cols, data, counts = cols[keep], data[keep], keep.sum(axis=1)
    indptr = np.zeros(rows + 1, dtype=idx_dtype)
    np.cumsum(counts, out=indptr[1:])
    return sp.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(rows, per_axis**n))


def _coarsen_axis(offsets: tuple, table: np.ndarray, axis: int) -> tuple:
    """R A R^T for the full weighting R of one axis, on a column-layout
    table of shape (offsets,) + grid shape; returns (offsets, table).

    The weight of axis offset c at coarse column C sums _GALERKIN_TERMS[c]
    over the fine weights at fine column 2C + b; a fine column past the end
    of an even axis has no weight. Coarse columns whose row C - c is not a
    node are set to 0, as the layout requires.
    """
    index = {offset: k for k, offset in enumerate(offsets)}
    coarse_offsets = tuple(sorted(
        {offset[:axis] + (c,) + offset[axis + 1:] for offset in offsets for c in (-1, 0, 1)}
    ))
    coarse = table.shape[1 + axis] // 2
    shape = table.shape[1:axis + 1] + (coarse,) + table.shape[axis + 2:]
    out = np.zeros((len(coarse_offsets),) + shape)
    lead = (slice(None),) * axis
    for weights, offset in zip(out, coarse_offsets):
        for fine_o, b, w in _GALERKIN_TERMS[offset[axis]]:
            k = index.get(offset[:axis] + (fine_o,) + offset[axis + 1:])
            if k is not None:
                fine = table[k][lead + (slice(b, 2 * coarse - 1 + b, 2),)]
                weights[lead + (slice(0, fine.shape[axis]),)] += w * fine
        if offset[axis]:
            weights[lead + (0 if offset[axis] > 0 else -1,)] = 0.0
    return coarse_offsets, out


def _galerkin(offsets: tuple, table: np.ndarray, per_axis: int) -> tuple:
    """The coarse operator R A R^T, R = _restriction(per_axis, n), of a
    column-layout table, in closed form one axis at a time:
    R = R_0 R_1 ... R_{n-1}, each R_d restricting axis d alone."""
    n = len(offsets[0])
    table = table.reshape((len(offsets),) + (per_axis,) * n)
    for axis in range(n):
        offsets, table = _coarsen_axis(offsets, table, axis)
    return offsets, table.reshape(len(offsets), -1)


def _multigrid_levels(offsets: tuple, table: np.ndarray, per_axis: int, blocks: list) -> tuple:
    """Galerkin levels [(A x, P, R, weighted inverse diagonal), ...] and the
    dense inverse of the coarsest level, the first with at most
    COARSEST_UNKNOWNS unknowns. ``blocks`` are the finest level's
    _dia_blocks, which the solve builds once for its own products.

    P interpolates linearly from every other interior node on each axis (the
    boundary is a zero neighbour); R A P with R = P^T stays symmetric when A
    is. Each level keeps its operator as a column-layout table and applies
    it through _dia_blocks; the next table is _galerkin of this one, and the
    diagonal is the zero offset's row. _restriction builds R straight into
    CSR, and P is its transpose view, so the V-cycle restricts through CSR
    rows. The transfer operators are built anew for each solve and are
    freed with its hierarchy: building them costs less than a millisecond
    at m = 129, and a cache of them would outlive every solve in memory.
    """
    n = len(offsets[0])
    levels = []
    while table.shape[1] > COARSEST_UNKNOWNS:
        R = _restriction(per_axis, n)
        if levels:
            blocks = _dia_blocks(offsets, table, per_axis)
        apply = partial(_matvec, blocks)
        levels.append((apply, R.T, R, JACOBI_WEIGHT / table[offsets.index((0,) * n)]))
        offsets, table = _galerkin(offsets, table, per_axis)
        per_axis //= 2
    return levels, _dense_inverse(_dia(offsets, table, per_axis).toarray())


def _vcycle(levels: list, coarse: np.ndarray, r: np.ndarray, k: int = 0) -> np.ndarray:
    """One V-cycle for levels[k] x = r from x = 0; symmetric, as CG needs.

    The coarsest level applies its inverse with a fixed-order row sum, not
    BLAS gemv, for the reason _dot gives. Module level rather than a
    self-calling closure, whose reference cycle would keep each solve's
    hierarchy alive until the cyclic collector runs.
    """
    if k == len(levels):
        return np.add.reduce(coarse * r, axis=1)
    apply, P, R, dinv = levels[k]
    x = dinv * r
    for _ in range(SMOOTHING_SWEEPS - 1):
        x += dinv * (r - apply(x))
    x += P @ _vcycle(levels, coarse, R @ (r - apply(x)), k + 1)
    for _ in range(SMOOTHING_SWEEPS):
        x += dinv * (r - apply(x))
    return x


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product summed in numpy's fixed pairwise order.

    BLAS ddot splits the sum by thread, so its last bits depend on the
    thread count; every inner product and norm of the solver comes here.
    """
    return float(np.add.reduce(x * y))


def _norm(x: np.ndarray) -> float:
    return _dot(x, x) ** 0.5


def _cg(apply, rhs: np.ndarray, pre, tol: float) -> tuple:
    """Preconditioned CG for apply(x) = rhs from x = 0 until ||r|| < tol;
    returns (x, iterations)."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    for k in range(KRYLOV_MAXITER):
        if _norm(r) < tol:
            return x, k
        z = pre(r)
        rho = _dot(r, z)
        if k == 0:
            p = z
        else:
            p *= rho / rho_prev
            p += z
        q = apply(p)
        alpha = rho / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, KRYLOV_MAXITER


def _gmres(apply, rhs: np.ndarray, pre, tol: float) -> tuple:
    """Right-preconditioned GMRES for apply(x) = rhs from x = 0 until
    |g[k+1]| <= tol.

    Modified Gram-Schmidt builds the basis one vector per iteration; Givens
    rotations keep the Hessenberg matrix upper triangular, so g[k+1] is the
    residual norm. The test comes before the new vector is normalized, so a
    breakdown (zero next vector) ends the loop instead of dividing by zero.
    Returns (M V y, iterations).
    """
    g = [_norm(rhs)]
    basis = [rhs / g[0]]
    columns, rotations = [], []  # triangular columns of H; (c, s) pairs
    for k in range(KRYLOV_MAXITER):
        w = apply(pre(basis[k]))
        h = []
        for v in basis:
            h.append(_dot(w, v))
            w -= h[-1] * v
        h_next = _norm(w)
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        d = float(np.hypot(h[k], h_next))
        c, s = h[k] / d, h_next / d
        h[k] = d
        rotations.append((c, s))
        columns.append(h)
        g.append(-s * g[k])
        g[k] *= c
        if abs(g[k + 1]) <= tol:
            break
        basis.append(w / h_next)
    iterations = len(columns)
    y = [0.0] * iterations
    for i in reversed(range(iterations)):
        y[i] = (g[i] - sum(columns[j][i] * y[j] for j in range(i + 1, iterations))) / columns[i][i]
    u = y[0] * basis[0]
    for yi, v in zip(y[1:], basis[1:]):
        u += yi * v
    return pre(u), iterations


def solve_dirichlet(problem: EllipticProblem) -> DiscreteSolution:
    """Solve the assembled system to relative residual <= SOLVE_RTOL.

    A geometric-multigrid V-cycle preconditions CG for symmetric operators
    and GMRES otherwise, each capped at KRYLOV_MAXITER iterations.
    """
    system = assemble(problem)
    grid = system.grid
    offsets, table, rhs = system.offsets, system.table, system.rhs
    blocks = _dia_blocks(offsets, table, grid.m - 2)
    apply = partial(_matvec, blocks)
    method = "mg-cg" if problem.A.is_symmetric else "mg-gmres"
    bnorm = _norm(rhs)
    x, iterations = np.zeros_like(rhs), 0  # the answer to zero data
    if bnorm > 0.0:
        levels, coarse = _multigrid_levels(offsets, table, grid.m - 2, blocks)
        krylov = _cg if problem.A.is_symmetric else _gmres
        x, iterations = krylov(apply, rhs, lambda r: _vcycle(levels, coarse, r), KRYLOV_RTOL * bnorm)
    residual = _norm(rhs - apply(x)) / (bnorm or 1.0)
    diagnostics = {"method": method, "iterations": iterations, "residual": residual}
    if not np.isfinite(residual) or residual > SOLVE_RTOL:
        raise SolverStagnationError(
            f"{method} finished with relative residual {residual:.3e} > {SOLVE_RTOL}",
            diagnostics=diagnostics,
        )
    diagnostics.update(symmetric=problem.A.is_symmetric, unknowns=rhs.size)

    full = problem.g.values.copy()
    full[grid.interior_mask(1)] = x
    return DiscreteSolution(u=Field(grid, full), problem=problem, diagnostics=diagnostics)


def weak_residual(u: Field, problem: EllipticProblem, phi: Field) -> float:
    """|sum A grad u . grad phi - sum f phi + sum F . grad phi| * h^n.

    phi must vanish on the two outermost node layers; for a solved problem
    with smooth data the value decays like h^2 times the H^1 size of phi.
    """
    grid = u.grid
    if not _band_clear(phi, 2):
        raise SupportViolationError("phi must vanish on the outer two node layers")
    hn = grid.h**grid.n
    gu = gradient(u).components
    gphi = gradient(phi).components
    a_grad = np.einsum("ij...,j...->i...", problem.A.entries, gu)
    t1 = float((a_grad * gphi).sum()) * hn
    t2 = float((problem.f.values * phi.values).sum()) * hn
    t3 = float((problem.F.components * gphi).sum()) * hn
    return abs(t1 - t2 + t3)

