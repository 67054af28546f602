"""Assembly and solution of the discrete Dirichlet problem
-div(A grad u) = f + div F on the box, with certified ellipticity.

Discretization is conservative: diagonal coefficients enter through
face-averaged fluxes (the classical 3-point stencil per axis), off-diagonal
coefficients through averaged cross stencils, so that for symmetric A the
assembled operator is symmetric to machine precision and summation-by-parts
identities survive discretization up to O(h).

The operator is kept as a stencil table: one weight row per offset, in the
column layout of ``scipy.sparse.dia_matrix``. A solve applies row blocks
of that table with scipy's compiled ``dia_matvec`` kernel, builds each
coarser multigrid operator R A R^T from the finer table in closed form,
one axis at a time, and inverts the coarsest level, of at most
COARSEST_UNKNOWNS rows, densely. It restricts and prolongs with
``csr_matvec`` and ``csc_matvec`` block by block on one band of R's CSR
arrays, the rows of its first few coarse slabs along axis 0: full
weighting is the same stencil at every coarse node, so the other blocks
read the band at an offset. The kernels are called with the arguments
scipy's own products pass them, so every product is scipy's bit for bit,
but ``scipy.sparse`` itself is never imported by a solve: its
Python package pulls in numpy.testing, numpy.f2py and numpy.ma, more than
half the modules and about a third of the memory of the import.
``LinearSystem.matrix``, scipy's CSR form of the operator for a caller
that asks for it, is the one place that imports ``scipy.sparse``.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.machinery
import importlib.util
import itertools
import math
import os
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .domain_grid import Grid
from .errors import InadmissibleExponentsError, NotEllipticError, SolverStagnationError, SupportViolationError
from .field_calculus import Field, VecField, _band_clear, divergence, gradient

# Required relative algebraic residual of any returned solution.
SOLVE_RTOL = 1e-10

# Krylov tolerance and cap on CG iterations or BiCGStab steps. With the
# multigrid preconditioner 1e-13 takes 10-14 iterations or 5-8 steps of two
# V-cycles each at any m; 1e-11 would leave the weak residual of a constant
# solution above 1e-12.
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

# Rows per block of an operator: a block's slice of the result stays in
# cache while every diagonal adds into it. One unblocked dia_matvec is
# slower than csr_matvec at m = 513. It is also the most nonzeros of the
# band of R that _transfer_blocks keeps, unless one coarse slab has more.
BLOCK_ROWS = 2**15


def _sparse_kernels():
    """scipy's compiled sparse kernels, the extension module
    ``scipy.sparse._sparsetools`` whose functions scipy's own sparse
    products call, loaded by file from the installed scipy package.

    find_spec locates scipy without importing it, and the extension
    imports nothing from scipy, so ``scipy.sparse`` stays unimported. As
    any single-phase extension does, the module enters sys.modules under
    its own name, where a later ``import scipy.sparse`` finds it.
    """
    name = "scipy.sparse._sparsetools"
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    folder = os.path.join(spec.submodule_search_locations[0], "sparse")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_sparsetools" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            return module
    import scipy

    raise ImportError(f"no _sparsetools extension in {folder} (scipy {scipy.__version__})")


_sparsetools = _sparse_kernels()

# glibc's malloc_trim(pad), which hands the free pages of the heap back to
# the operating system; None under a C library without it. A solve frees
# its vectors and hierarchy into the heap, and a small block allocated
# above them during the solve keeps glibc from trimming it on its own, so
# without this call what a process holds after a solve depends on heap
# layout: 8 MB more after the CLI `solve` command in one layout than in
# another.
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)
if _MALLOC_TRIM is not None:
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = (ctypes.c_size_t,), ctypes.c_int

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
    Optional regularity certificates, fixed at construction, gate the
    estimates that need them: ``lipschitz`` bounds the Lipschitz constant of
    every entry, and ``holder = (alpha, bound)`` bounds every entry's
    C^{0,alpha} seminorm. A bound must be finite and >= 0, else ValueError.
    """

    __slots__ = (
        "grid", "entries", "lam", "Lam", "L", "is_symmetric",
        "lipschitz_bound", "holder",
    )

    def __init__(self, grid: Grid, entries, lipschitz: float | None = None, holder: tuple | None = None):
        if holder is not None and not 0 < holder[0] <= 1:
            raise ValueError("certificate exponent must lie in (0, 1]")
        if lipschitz is not None:
            _require_bound("lipschitz", lipschitz)
        if holder is not None:
            _require_bound("holder", holder[1])
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
        self.lipschitz_bound = None if lipschitz is None else float(lipschitz)
        self.holder = None if holder is None else (float(holder[0]), float(holder[1]))

    @classmethod
    def identity(cls, grid: Grid) -> "CoefficientField":
        e = np.zeros((grid.n, grid.n) + grid.shape)
        for i in range(grid.n):
            e[i, i] = 1.0
        return cls(grid, e, lipschitz=0.0)

    @classmethod
    def from_constant(cls, grid: Grid, matrix) -> "CoefficientField":
        matrix = np.asarray(matrix, dtype=float)
        e = np.empty((grid.n, grid.n) + grid.shape)
        for i in range(grid.n):
            for j in range(grid.n):
                e[i, j] = matrix[i, j]
        return cls(grid, e, lipschitz=0.0)


def _require_bound(name: str, bound) -> None:
    """Raise ValueError, naming the certificate, unless bound is a finite
    number >= 0: a negative or NaN bound bounds nothing."""
    if not (np.isfinite(bound) and bound >= 0):
        raise ValueError(f"certificate {name} = {bound!r} is not a finite bound >= 0")


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


# The data certificates a problem may carry, each with the power of t by
# which the zoom x -> x0 + t x (f -> t^2 f, F -> t F) scales what it bounds.
CERTIFICATE_DEGREES = {"f_sup": 2, "f_lipschitz": 3, "F_sup": 1, "F_lipschitz": 2}


@dataclass
class EllipticProblem:
    """Data bundle (A, f, F, Dirichlet boundary g, integrability exponents).

    Exponents default to (p, q) = (2, 4), admissible for n in {2, 3}. The
    boundary field g is read only on the boundary nodes. ``certificates``
    carries optional data-regularity bounds, keyed "f_sup", "f_lipschitz",
    "F_sup" and "F_lipschitz", that gate the estimates requiring them; any
    other key is rejected, since a zoom could not scale it, and so is a
    value that is not a finite number >= 0.
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
        if not self.certificates.keys() <= CERTIFICATE_DEGREES.keys():
            raise ValueError(f"certificate keys {sorted(self.certificates)} are not all in {list(CERTIFICATE_DEGREES)}")
        for key, bound in self.certificates.items():
            _require_bound(key, bound)
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
    def matrix(self):
        """The operator as a ``scipy.sparse.csr_matrix`` with the zero
        weights dropped: scipy's conversion of the dia_matrix of the arrays
        a solve applies, made the first time it is read. A solve never
        reads it, so only a caller that does imports ``scipy.sparse``."""
        import scipy.sparse as sp

        shifts, data = _dia(self.offsets, self.table, self.grid.m - 2)
        return sp.dia_matrix((data, shifts), shape=(data.shape[1],) * 2).tocsr()


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


def _dia(offsets: tuple, table: np.ndarray, per_axis: int) -> tuple:
    """The diagonals of the operator of a column-layout table, as the
    (offsets, data) pair of a ``scipy.sparse.dia_matrix``: the flat shifts,
    increasing as the table's rows run, in the index dtype scipy would give
    them (int32 unless the size needs int64), and the table itself.

    On an axis of one or two nodes (m = 3, or a coarse level of two)
    distinct offsets can share a shift. A column y is reached through at
    most one of them, since y - offset is a node for at most one, and the
    others hold 0 there; so data holds their exact sum, in a new array.
    """
    shifts, which = np.unique([_flat_shift(offset, per_axis) for offset in offsets], return_inverse=True)
    size, data = table.shape[1], table
    if shifts.size < len(offsets):
        data = np.zeros((shifts.size, size))
        np.add.at(data, which, table)
    return shifts.astype(np.int32 if size <= np.iinfo(np.int32).max else np.int64), data


def _dia_blocks(offsets: tuple, table: np.ndarray, per_axis: int) -> list:
    """The operator of a column-layout table as row blocks (start, rows,
    offsets, data) of at most BLOCK_ROWS rows: rows start .. start + rows
    of the _dia diagonals, whose offsets are the shifts plus start and
    whose data is the whole table, not a copy.

    A product with all blocks is the CSR product bit for bit: each row sums
    the same weights in the same increasing-column order, and the extra
    zero weights add +0 to a partial sum that starts at +0 and so is never
    -0.
    """
    shifts, data = _dia(offsets, table, per_axis)
    size = table.shape[1]
    return [
        (start, min(BLOCK_ROWS, size - start), shifts + start, data)
        for start in range(0, size, BLOCK_ROWS)
    ]


def _matvec(blocks: list, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The product with x of the operator whose row blocks are blocks,
    written into out, or into a new vector when out is None.

    Each block's rows of out are set to +0 and dia_matvec adds the block's
    diagonals into them, the call and the arguments of scipy's
    ``dia_matrix @ x``, so the product is scipy's bit for bit. out is the
    one N-vector of the product; no block makes a vector of its own. The
    kernel reads and writes by the sizes it is given, so x and out are
    checked against the table's first.
    """
    size = blocks[0][3].shape[1]
    if x.shape != (size,) or out is not None and out.shape != (size,):
        raise ValueError(f"x or out is not a vector of the operator's {size} columns")
    if out is None:
        out = np.empty(size)
    for start, rows, offsets, data in blocks:
        y = out[start:start + rows]
        y.fill(0.0)
        _sparsetools.dia_matvec(rows, size, offsets.size, size, offsets, data, x, y)
    return out


def _dense(offsets: tuple, table: np.ndarray, per_axis: int) -> np.ndarray:
    """The operator of a column-layout table as a dense array: each
    offset's weights scattered into zeros at (column - shift, column), for
    the columns whose row is in range; the other columns hold 0. It equals
    scipy's ``dia_matrix.toarray()`` of the _dia diagonals bit for bit: an
    entry is +0 plus its one weight, whatever other offsets share its
    shift, since those hold 0 there."""
    size = table.shape[1]
    dense = np.zeros((size, size))
    cols = np.arange(size)
    for offset, weights in zip(offsets, table):
        shift = _flat_shift(offset, per_axis)
        reach = cols[max(shift, 0):size + min(shift, 0)]
        dense[reach - shift, reach] += weights[reach]
    return dense


def _restriction(shape: tuple) -> tuple:
    """Full-weighting restriction R = P^T from a grid of interior shape
    ``shape`` to the grid of s // 2 nodes on each axis of length s, as the
    (indptr, indices, data) arrays of its CSR form with sorted column
    indices. The same arrays are the CSC form of the prolongation P.

    Coarse node c of an axis is fine node 2c + 1 and reads fine nodes 2c,
    2c + 1, 2c + 2 with weights _FULL_WEIGHTING. A row of R is the tensor
    product of its axes' rows: fine corner (2c_0, ..., 2c_{n-1}) plus the
    3^n offsets in lexicographic order, which is increasing column. On an
    even axis the last coarse node has no fine node 2c + 2, and those
    entries are dropped. Every weight is a power of two, so the products are
    exact. Index arithmetic runs in int32 on per-axis pieces whenever the
    nonzeros and the columns fit.
    """
    rows, width = math.prod(s // 2 for s in shape), 3 ** len(shape)
    idx_dtype = np.int32 if max(rows * width, math.prod(shape)) < 2**31 else np.int64
    corner, offsets, weights = np.zeros(1, dtype=idx_dtype), np.zeros(1, dtype=idx_dtype), np.ones(1)
    for s in shape:
        corner = np.add.outer(corner * s, 2 * np.arange(s // 2, dtype=idx_dtype)).ravel()
        offsets = np.add.outer(offsets * s, np.arange(3, dtype=idx_dtype)).ravel()
        weights = np.multiply.outer(weights, _FULL_WEIGHTING).ravel()
    cols = np.add.outer(corner, offsets)
    data = np.broadcast_to(weights, cols.shape)
    counts = np.full(rows, width)
    if any(s % 2 == 0 for s in shape):
        keep = np.ones((1, 1), dtype=bool)
        for s in shape:
            axis_keep = np.ones((s // 2, 3), dtype=bool)
            axis_keep[-1, 2] = s % 2 == 1
            keep = np.logical_and.outer(keep, axis_keep).transpose(0, 2, 1, 3)
            keep = keep.reshape(keep.shape[0] * keep.shape[1], -1)
        cols, data, counts = cols[keep], data[keep], keep.sum(axis=1)
    indptr = np.zeros(rows + 1, dtype=idx_dtype)
    np.cumsum(counts, out=indptr[1:])
    return indptr, cols.ravel(), data.ravel()


def _transfer_blocks(per_axis: int, n: int) -> list:
    """The full-weighting R from (per_axis)^n interior nodes to
    (per_axis // 2)^n as blocks (fine start, columns, coarse start, rows,
    indptr, indices, data): R's rows from coarse start on and its columns
    from fine start on, given as the _restriction arrays of one band that
    every block but the even-axis tail shares, not copies.

    A slab is the nodes of one axis-0 index. Full weighting is the same
    stencil at every coarse node, so the rows of coarse slabs c0 ... c0 + B
    - 1 are those of slabs 0 ... B - 1 with every column moved by 2 c0 fine
    slabs: the band is the rows of the first B coarse slabs, B as many as
    fit BLOCK_ROWS nonzeros, and a shorter last block reads a prefix of
    them. On an even axis 0 the last coarse slab has no fine slab 2c + 2;
    it is a block of its own, the restriction of its two fine slabs.
    """
    coarse = per_axis // 2
    fine_slab, coarse_slab = per_axis ** (n - 1), coarse ** (n - 1)
    whole = coarse - 1 + per_axis % 2  # the coarse slabs that read three fine slabs
    slabs = max(1, min(whole, BLOCK_ROWS // (3**n * coarse_slab)))
    rest = (per_axis,) * (n - 1)
    band = _restriction((2 * slabs + 1,) + rest)
    blocks = []
    for c0 in range(0, whole, slabs):
        b = min(slabs, whole - c0)
        blocks.append((2 * c0 * fine_slab, (2 * b + 1) * fine_slab, c0 * coarse_slab, b * coarse_slab) + band)
    if per_axis % 2 == 0:
        tail = _restriction((2,) + rest)
        blocks.append((2 * whole * fine_slab, 2 * fine_slab, whole * coarse_slab, coarse_slab) + tail)
    return blocks


def _transfer_sizes(blocks: list) -> tuple:
    """(fine nodes, coarse nodes) of the R whose _transfer_blocks are
    blocks: the ends of its last block."""
    fine_at, cols, coarse_at, rows = blocks[-1][:4]
    return fine_at + cols, coarse_at + rows


def _restrict(blocks: list, t: np.ndarray) -> np.ndarray:
    """R t for the _transfer_blocks of R, as a new coarse vector.

    Each block's csr_matvec adds its rows times its columns' slice of t into
    their +0 slice of the result, the call and arguments of scipy's
    ``R @ t`` on that block, so each coarse row sums the same weights times
    the same values in the same order. The kernel reads and writes by the
    sizes it is given, so t is checked against R first.
    """
    fine, coarse = _transfer_sizes(blocks)
    if t.shape != (fine,):
        raise ValueError(f"t is not a vector of R's {fine} columns")
    e = np.zeros(coarse)
    for fine_at, cols, coarse_at, rows, indptr, indices, data in blocks:
        x, y = t[fine_at:fine_at + cols], e[coarse_at:coarse_at + rows]
        _sparsetools.csr_matvec(rows, cols, indptr, indices, data, x, y)
    return e


def _prolong(blocks: list, e: np.ndarray) -> np.ndarray:
    """R^T e for the _transfer_blocks of R, as a new vector of fine nodes.

    Each block's csc_matvec adds into its columns' slice of the +0 result,
    as scipy's ``R.T @ e`` does; the blocks run in increasing coarse order,
    so every fine node, the fine slab that two blocks share included,
    takes its coarse contributions in the order of the whole product. e is
    checked against R's rows first.
    """
    fine, coarse = _transfer_sizes(blocks)
    if e.shape != (coarse,):
        raise ValueError(f"e is not a vector of R's {coarse} rows")
    t = np.zeros(fine)
    for fine_at, cols, coarse_at, rows, indptr, indices, data in blocks:
        x, y = e[coarse_at:coarse_at + rows], t[fine_at:fine_at + cols]
        _sparsetools.csc_matvec(cols, rows, indptr, indices, data, x, y)
    return t


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
    """The coarse operator R A R^T, R the full weighting of
    _transfer_blocks(per_axis, n), of a column-layout table, in closed
    form one axis at a time: R = R_0 R_1 ... R_{n-1}, each R_d restricting
    axis d alone."""
    n = len(offsets[0])
    table = table.reshape((len(offsets),) + (per_axis,) * n)
    for axis in range(n):
        offsets, table = _coarsen_axis(offsets, table, axis)
    return offsets, table.reshape(len(offsets), -1)


def _multigrid_levels(offsets: tuple, table: np.ndarray, per_axis: int, blocks: list) -> tuple:
    """Galerkin levels [(A x, R blocks, weighted inverse diagonal), ...]
    and the dense inverse of the coarsest level, the first with at most
    COARSEST_UNKNOWNS unknowns. ``blocks`` are the finest level's
    _dia_blocks, which the solve builds once for its own products.

    P interpolates linearly from every other interior node on each axis (the
    boundary is a zero neighbour); R A P with R = P^T stays symmetric when A
    is. Each level keeps its operator as a column-layout table and applies
    it through _dia_blocks; the next table is _galerkin of this one, and the
    diagonal is the zero offset's row. R is its _transfer_blocks, one band
    of R's CSR arrays and, on an even axis 0, a one-slab tail, which the
    V-cycle reads as R's CSR form to restrict and as P's CSC form to
    prolong. They are built anew for each solve and freed with its
    hierarchy: a level's band holds at most about BLOCK_ROWS nonzeros
    whatever m, and building the finest level's costs about 0.1 ms at
    m = 513 or 1025, while a cache of the transfers would outlive every
    solve in memory.
    """
    n = len(offsets[0])
    levels = []
    while table.shape[1] > COARSEST_UNKNOWNS:
        if levels:
            blocks = _dia_blocks(offsets, table, per_axis)
        apply = partial(_matvec, blocks)
        levels.append((apply, _transfer_blocks(per_axis, n), JACOBI_WEIGHT / table[offsets.index((0,) * n)]))
        offsets, table = _galerkin(offsets, table, per_axis)
        per_axis //= 2
    return levels, _dense_inverse(_dense(offsets, table, per_axis))


def _vcycle(levels: list, coarse: np.ndarray, r: np.ndarray, k: int = 0) -> np.ndarray:
    """One V-cycle for levels[k] x = r from x = 0; symmetric, as CG needs.

    A level holds x and one work vector t: each sweep applies the operator
    into t (see _matvec), turns it into the correction dinv (r - A x) in
    place and adds it to x. _restrict makes the coarse residual from t and
    t is freed, so the coarser levels run without it; _prolong makes the
    fine correction from the coarse one, the work vector of the sweeps
    after it. Both transfers round as scipy's ``R @ t`` and ``R.T @ e`` do,
    and every operation keeps the operands and order of x += dinv * (r -
    A x), so the cycle rounds as that expression does.

    The coarsest level applies its inverse with a fixed-order row sum, not
    BLAS gemv, for the reason _dot gives. Module level rather than a
    self-calling closure, whose reference cycle would keep each solve's
    hierarchy alive until the cyclic collector runs.
    """
    if k == len(levels):
        return np.add.reduce(coarse * r, axis=1)
    apply, transfer, dinv = levels[k]
    x = dinv * r
    t = None
    for _ in range(SMOOTHING_SWEEPS - 1):
        t = apply(x, t)
        np.subtract(r, t, out=t)
        t *= dinv
        x += t
    t = apply(x, t)
    np.subtract(r, t, out=t)
    e = _restrict(transfer, t)
    del t  # the coarse residual is e; the fine work vector is freed
    e = _vcycle(levels, coarse, e, k + 1)
    t = _prolong(transfer, e)
    del e
    x += t
    for _ in range(SMOOTHING_SWEEPS):
        t = apply(x, t)
        np.subtract(r, t, out=t)
        t *= dinv
        x += t
    return x


def _dot(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> float:
    """Inner product summed in numpy's fixed pairwise order; the elementwise
    products go to out when it is given.

    BLAS ddot splits the sum by thread, so its last bits depend on the
    thread count; every inner product and norm of the solver comes here.
    """
    return float(np.add.reduce(np.multiply(x, y, out=out)))


def _norm(x: np.ndarray, out: np.ndarray | None = None) -> float:
    return _dot(x, x, out) ** 0.5


def _cg(apply, rhs: np.ndarray, pre, tol: float) -> tuple:
    """Preconditioned CG for apply(x) = rhs from x = 0 until ||r|| < tol;
    returns (x, iterations).

    Between iterations it holds x, r, p and one scratch vector, in which
    every dot product and alpha * p, alpha * q is formed; z = pre(r) and
    q = apply(p) are dropped once read, so the next V-cycle runs without
    them.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    scratch = np.empty_like(rhs)
    for k in range(KRYLOV_MAXITER):
        if _norm(r, scratch) < tol:
            return x, k
        z = pre(r)
        rho = _dot(r, z, scratch)
        if k == 0:
            p = z
        else:
            p *= rho / rho_prev
            p += z
        del z
        q = apply(p)
        alpha = rho / _dot(p, q, scratch)
        x += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, q, out=scratch)
        del q
        rho_prev = rho
    return x, KRYLOV_MAXITER


def _bicgstab(apply, rhs: np.ndarray, pre, tol: float) -> tuple:
    """Right-preconditioned BiCGStab (van der Vorst, 1992) for apply(x) =
    rhs from x = 0 until ||r|| < tol, tested after each half step; returns
    (x, steps). A step applies pre and the operator twice each.

    The shadow residual is rhs itself, read only. Between steps it holds x,
    r, p, v and one scratch vector, in which every dot product and scaled
    update is formed; apply writes v in place (see _matvec), and each
    preconditioned vector and t are dropped once read. A zero rho, (rhs, v)
    or omega would divide by zero, so the loop stops there and the caller's
    residual test rejects the iterate.
    """
    x, p, v = np.zeros_like(rhs), np.zeros_like(rhs), np.zeros_like(rhs)
    r = rhs.copy()
    scratch = np.empty_like(rhs)
    rho_prev = alpha = omega = 1.0
    steps = 0
    while steps < KRYLOV_MAXITER and not _norm(r, scratch) < tol:
        steps += 1
        rho = _dot(rhs, r, scratch)
        if rho == 0.0:
            break
        p -= np.multiply(omega, v, out=scratch)
        p *= rho / rho_prev * (alpha / omega)
        p += r
        z = pre(p)
        v = apply(z, v)
        sigma = _dot(rhs, v, scratch)
        if sigma == 0.0:
            break
        alpha = rho / sigma
        x += np.multiply(alpha, z, out=scratch)
        del z
        r -= np.multiply(alpha, v, out=scratch)
        if _norm(r, scratch) < tol:
            break
        z = pre(r)
        t = apply(z)
        tt = _dot(t, t, scratch)
        omega = _dot(t, r, scratch) / tt if tt else 0.0
        if omega == 0.0:
            break
        x += np.multiply(omega, z, out=scratch)
        r -= np.multiply(omega, t, out=scratch)
        del z, t
        rho_prev = rho
    return x, steps


def solve_dirichlet(problem: EllipticProblem) -> DiscreteSolution:
    """Solve the assembled system to relative residual <= SOLVE_RTOL.

    A geometric-multigrid V-cycle preconditions CG for symmetric operators
    and BiCGStab otherwise, capped at KRYLOV_MAXITER iterations or steps; a
    solve that stops above SOLVE_RTOL raises SolverStagnationError. The
    memory the solve freed goes back to the operating system (see
    _MALLOC_TRIM) before the solution field is made.
    """
    x, diagnostics = _solve_interior(problem)
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    grid = problem.grid
    full = problem.g.values.copy()
    full[grid.interior_mask(1)] = x
    return DiscreteSolution(u=Field(grid, full), problem=problem, diagnostics=diagnostics)


def _solve_interior(problem: EllipticProblem) -> tuple:
    """(interior solution, diagnostics) of solve_dirichlet; the operator,
    hierarchy and work vectors are freed when it returns."""
    system = assemble(problem)
    grid = system.grid
    offsets, table, rhs = system.offsets, system.table, system.rhs
    blocks = _dia_blocks(offsets, table, grid.m - 2)
    apply = partial(_matvec, blocks)
    method = "mg-cg" if problem.A.is_symmetric else "mg-bicgstab"
    bnorm = _norm(rhs)
    if bnorm > 0.0:
        levels, coarse = _multigrid_levels(offsets, table, grid.m - 2, blocks)
        krylov = _cg if problem.A.is_symmetric else _bicgstab
        x, iterations = krylov(apply, rhs, lambda r: _vcycle(levels, coarse, r), KRYLOV_RTOL * bnorm)
        del levels, coarse  # the hierarchy goes before the residual and the output field
    else:
        x, iterations = np.zeros_like(rhs), 0  # the answer to zero data
    t = apply(x)
    np.subtract(rhs, t, out=t)
    residual = _norm(t, t) / (bnorm or 1.0)
    del t
    diagnostics = {"method": method, "iterations": iterations, "residual": residual}
    if not np.isfinite(residual) or residual > SOLVE_RTOL:
        raise SolverStagnationError(
            f"{method} finished with relative residual {residual:.3e} > {SOLVE_RTOL}",
            diagnostics=diagnostics,
        )
    diagnostics.update(symmetric=problem.A.is_symmetric, unknowns=rhs.size)
    return x, diagnostics


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

