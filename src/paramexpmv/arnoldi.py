"""Arnoldi iteration on the block-Toeplitz operator with a growing basis.

Each iteration applies the structured matvec to the newest basis column,
which adds N blocks, so column j (0-based) of the basis is nonzero only in
its first n*(1+j*N) entries. `StaircaseBasis` stores just these prefixes,
packed into column-major chunks, and is the one place that knows the
layout.

Orthogonalization is lagged CGS2, the delayed reorthogonalization of DCGS2
(Swirydowicz et al., Numer. Linear Algebra Appl. 2021): classical
Gram-Schmidt run twice, with each column's second pass made in the next
step, fused with the first pass of the next product. Step p holds the
pending vector u, the first-pass residual of L q_p scaled to unit norm, and
forms w = L u. One projection G = Q_p^H [u, w] and one update
[u, w] -= Q_p G over the rows of a (2, length) array then give u's second
pass, which finishes column p of H and q_{p+1}, and, through
L Q_p = Q_{p+1} Hbar_p, the first pass of L q_{p+1} and the next pending
vector: two sweeps over the basis per step instead of four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import _as_int
from .matfun import phi_columns
from .toeplitz import MatrixPolynomial, structured_matvec_add

#: Relative residual below which an iteration is declared a lucky breakdown.
BREAKDOWN_TOL = 1e-14

#: Basis columns per storage chunk. Each chunk is allocated as tall as its
#: last column, so larger chunks hold more zeros (and the last chunk more
#: unused columns) and smaller ones make more BLAS calls.
CHUNK = 16

#: Rows per BLAS product over the basis. A slab of a full chunk (1 MiB of
#: float64) stays in cache through a two-row product; whole chunks of 10^5
#: rows and more made the two-row projection and update up to 2x slower.
SLAB = 8192


class StaircaseBasis:
    """Growing set of basis columns, column j holding n*(1+j*N) entries.

    Columns are packed into Fortran-order chunks of `CHUNK` columns, each
    allocated when its first column arrives and as tall as its last column.
    Chunks are never reallocated and stored columns never change, so views
    and readers of the first m columns stay valid while columns are appended.
    Entries of a chunk below a column's prefix are zero; readers go through
    `_blocks`, which leaves out of each slab the columns that end above it.
    """

    def __init__(self, n: int, N: int, dtype):
        self.n = n
        self.N = N
        self.dtype = np.dtype(dtype)
        self._chunks: list[np.ndarray] = []
        self._count = 0

    def length(self, j: int) -> int:
        """Prefix length of column j."""
        return self.n * (1 + j * self.N)

    @property
    def count(self) -> int:
        """Number of stored columns."""
        return self._count

    @property
    def nbytes(self) -> int:
        """Bytes allocated for all chunks."""
        return sum(c.nbytes for c in self._chunks)

    def append(self, v: np.ndarray) -> None:
        """Store v as the next column; its length must be that column's prefix."""
        j = self._count
        if v.shape != (self.length(j),):
            raise ValueError(f"column {j} must have length {self.length(j)}, got {v.shape}")
        if j % CHUNK == 0:
            height = self.length(j + CHUNK - 1)
            self._chunks.append(np.zeros((height, CHUNK), dtype=self.dtype, order="F"))
        self._chunks[-1][:v.size, j % CHUNK] = v
        self._count = j + 1

    def column(self, j: int) -> np.ndarray:
        """Contiguous read-only view of the nonzero prefix of column j."""
        if not 0 <= j < self._count:
            raise IndexError(f"column {j} out of range for {self._count} columns")
        v = self._chunks[j // CHUNK][:self.length(j), j % CHUNK]
        v.flags.writeable = False
        return v

    def _blocks(self, m: int):
        """(first column, first row, block) triples covering columns 0..m-1.

        Each chunk is cut to the prefix of its last column and into slabs of
        at most `SLAB` rows. A slab starting at row r holds only the columns
        whose prefix reaches row r, so the zeros below a column's prefix are
        read only within the slab that holds its last stored row.
        """
        if not 0 <= m <= self._count:
            raise ValueError(f"{m} columns requested, {self._count} stored")
        n, step = self.n, self.n * self.N
        for a in range(0, m, CHUNK):
            b = min(a + CHUNK, m)
            height = self.length(b - 1)
            chunk = self._chunks[a // CHUNK]
            for r in range(0, height, SLAB):
                # first column c with length(c) = n + c*step > r
                c = a if r < n else max(a, (r - n) // step + 1)
                yield c, r, chunk[r:min(r + SLAB, height), c - a:b - a]

    def project(self, Y: np.ndarray, m: int) -> np.ndarray:
        """Q_m^H y for each row y of Y, shape (rows, m), over the first m columns.

        Y is a C-order (rows, length) array whose rows reach at least
        column m-1's length; each slab is one BLAS product over all rows.
        """
        G = np.zeros((len(Y), m), dtype=np.result_type(self.dtype, Y.dtype))
        Yc = Y.conj()
        for a, r, B in self._blocks(m):
            G[:, a:a + B.shape[1]] += Yc[:, r:r + B.shape[0]] @ B
        return G.conj()

    def accumulate(self, y: np.ndarray, w: np.ndarray) -> None:
        """y += Q_m w in place, with m = w.shape[-1]; for a 2-D y and w, row
        by row, one BLAS product per slab over all rows."""
        for a, r, B in self._blocks(w.shape[-1]):
            y[..., r:r + B.shape[0]] += w[..., a:a + B.shape[1]] @ B.T

    def dense(self, m: int) -> np.ndarray:
        """The first m columns zero-padded to column m-1's length, as a new array."""
        Q = np.zeros((self.length(m - 1), m), dtype=self.dtype, order="F")
        for a, r, B in self._blocks(m):
            Q[r:r + B.shape[0], a:a + B.shape[1]] = B
        return Q


@dataclass(frozen=True)
class KrylovDecomposition:
    """Basis, Hessenberg matrix and residual data after p Arnoldi steps.

    `staircase` holds the basis columns; only the first `ncols` belong to
    this decomposition (the iteration may have stored more since). Without
    breakdown there are p+1 orthonormal columns, column l (1-based) nonzero
    only in its first n*(1+(l-1)*N) entries. `H` is the (p+1) x p Hessenberg
    matrix with nonnegative subdiagonal. On lucky breakdown there are only
    p columns and the last row of `H` is zero: the decomposition is exact.
    `Q` is a dense zero-padded copy of the columns, built on first access,
    for tests and inspection. A solution reads only `at`, `rows`,
    `residual_blocks`, `k_max` and `truncate`, so the layout stays here.
    """

    staircase: StaircaseBasis
    H: np.ndarray
    beta: float
    p: int
    breakdown: bool

    @property
    def ncols(self) -> int:
        """Number of basis columns: p on breakdown, p+1 otherwise."""
        return self.p if self.breakdown else self.p + 1

    @cached_property
    def Q(self) -> np.ndarray:
        """Dense copy of all `ncols` columns, n*(1+N*(ncols-1)) rows."""
        return self.staircase.dense(self.ncols)

    @property
    def hessenberg(self) -> np.ndarray:
        """Leading p x p submatrix of the Hessenberg matrix."""
        return self.H[:self.p, :self.p]

    @property
    def residual_vector(self):
        """Read-only nonzero prefix of the basis vector q_{p+1}, or None on breakdown."""
        return None if self.breakdown else self.staircase.column(self.p)

    @property
    def residual_blocks(self):
        """The 1+Np blocks of q_{p+1}, read-only, shape (1+Np, n); None on breakdown."""
        q = self.residual_vector
        return None if q is None else q.reshape(-1, self.staircase.n)

    @property
    def k_max(self) -> int:
        """Number of coefficient rows, 1 + N(p-1): the blocks of column p."""
        return 1 + self.staircase.N * (self.p - 1)

    def at(self, t: float) -> tuple[np.ndarray, float]:
        """w = beta exp(tH_p)e_1, read-only, and the estimate's t-factor
        |t beta h_{p+1,p} e_p^T phi_1(tH_p)e_1|, zero on breakdown, from one
        exponential. Overflow leaves w not finite, the t-factor +inf or NaN."""
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                e1, phi1 = phi_columns(self.hessenberg, t)
            except ValueError:  # tH_p overflows, and expm refuses non-finite input
                e1 = phi1 = np.full(self.p, math.inf)
            w = e1 * self.beta
            h = float(self.H[self.p, self.p - 1].real)
            t_factor = 0.0 if self.breakdown else float(abs(t * self.beta * h * phi1[-1]))
        w.flags.writeable = False
        return w, t_factor

    def rows(self, w: np.ndarray) -> np.ndarray:
        """The k_max coefficient rows Q_p w for a w of length p, shape (k_max, n)."""
        basis = self.staircase
        out = np.empty(basis.length(self.p - 1), dtype=np.result_type(basis.dtype, w.dtype))
        # written before the products read it: np.zeros' pages would fault on
        # the read (zero page) and again on the first write (copy)
        out.fill(0)
        basis.accumulate(out, w)
        return out.reshape(-1, basis.n)

    def truncate(self, p: int) -> "KrylovDecomposition":
        """Decomposition after only the first p steps (shares storage)."""
        p = _as_int("p", p)
        if p == self.p:
            return self
        if not 1 <= p < self.p:
            raise ValueError(f"cannot truncate a {self.p}-step decomposition to p={p}")
        return replace(self, H=self.H[:p + 1, :p], p=p, breakdown=False)


class InfiniteArnoldi:
    """Incremental Arnoldi process for the block-Toeplitz operator.

    Mutable single-owner builder; :meth:`decomposition` returns immutable
    snapshots that remain valid as iteration continues. Between steps it
    also holds the first pass of the next column, as the next column of H
    and the pending vector: row 0 of a (2, length) work array, scaled to
    unit norm and zero past its length, with its norm in `_nu`.
    """

    def __init__(self, poly: MatrixPolynomial, u0):
        u0 = np.asarray(u0).ravel()
        if u0.size != poly.dim:
            raise ValueError(
                f"start vector has length {u0.size}, expected {poly.dim}"
            )
        if not np.all(np.isfinite(u0)):
            raise ValueError("start vector has non-finite entries")
        beta = float(np.linalg.norm(u0))
        if beta == 0.0:
            raise ValueError("start vector must be nonzero")
        self.poly = poly
        self.beta = beta
        self.p = 0
        self.breakdown = False
        self._dtype = np.result_type(poly.dtype, u0.dtype)
        self._basis = StaircaseBasis(poly.dim, poly.degree, self._dtype)
        self._H = np.zeros((6, 5), dtype=self._dtype)
        # column 0 is pending too: u0, with no basis yet to project out
        self._work = np.zeros((2, self._basis.length(CHUNK)), dtype=self._dtype)
        self._work[0, :u0.size] = u0 / beta
        self._nu = beta

    def _ensure_capacity(self, cols: int) -> None:
        hr, hc = self._H.shape
        if cols > hr or cols - 1 > hc:
            newH = np.zeros((max(cols, 2 * hr), max(cols - 1, 2 * hc)), dtype=self._dtype)
            newH[:hr, :hc] = self._H
            self._H = newH

    def step(self) -> bool:
        """Run one iteration. Returns False on (or after) lucky breakdown.

        Raises FloatingPointError, leaving p unchanged, if an operator
        product has a non-finite norm.
        """
        if self.breakdown:
            return False
        ell = self.p + 1
        # the first step also finishes q_1 and the first pass of L q_1
        while self.p < ell and not self.breakdown:
            self._sweep()
        return not self.breakdown

    def _sweep(self) -> None:
        """Finish the pending vector as basis column j and form the next one.

        For j >= 1 this also finishes column j (1-based) of H, whose first
        pass the previous sweep left in H[:j, j-1]. One operator product,
        one two-row projection and one two-row update.
        """
        j = self._basis.count
        lu, lw = self._basis.length(j), self._basis.length(j + 1)
        if lw > self._work.shape[1]:
            work = np.zeros((2, self._basis.length(2 * j)), dtype=self._dtype)
            work[0, :lu] = self._work[0, :lu]
            self._work = work
        Y = self._work[:, :lw]
        u, w = Y[0, :lu], Y[1]
        w[:] = 0.0
        structured_matvec_add(self.poly, u, w)
        norm_w = np.linalg.norm(w)
        if not np.isfinite(norm_w):
            raise FloatingPointError(
                f"Arnoldi step {max(j, 1)}: the operator applied to q_{j + 1} "
                f"has non-finite norm {norm_w}"
            )
        self._ensure_capacity(j + 2)
        H = self._H

        # the one sweep pair: [u, w] -= Q_j G with G = Q_j^H [u, w]
        G = self._basis.project(Y, j)
        self._basis.accumulate(Y, -G)
        g, z = G
        s = float(np.linalg.norm(u))
        nu = self._nu
        if j:
            # u was the first-pass residual of L q_j over nu
            norm_y = math.hypot(float(np.linalg.norm(H[:j, j - 1])), nu)
            H[:j, j - 1] += nu * g
            alpha = nu * s
            self.p = j
            if alpha <= BREAKDOWN_TOL * norm_y:
                H[j, j - 1] = 0.0
                self.breakdown = True
                return
            H[j, j - 1] = alpha
        else:
            self.beta = nu * s
        u /= s
        self._basis.append(u)

        # for q = u, L q = (w - L Q_j g) / s and L Q_j = Q_{j+1} Hbar_j: the
        # first pass of L q is ([z; c] - Hbar_j g) / s, its residual (w - c q) / s
        c = np.vdot(u, w[:lu])
        H[:j + 1, j] = (np.append(z, c) - H[:j + 1, :j] @ g) / s
        u *= -c
        Y[0] += w
        r = float(np.linalg.norm(Y[0]))
        self._nu = r / s
        if r > 0.0:
            Y[0] /= r

    def decomposition(self) -> KrylovDecomposition:
        """Immutable snapshot of the current state."""
        if self.p == 0:
            raise ValueError("no iterations performed yet")
        return KrylovDecomposition(staircase=self._basis, H=self._H[:self.p + 1, :self.p],
                                   beta=self.beta, p=self.p, breakdown=self.breakdown)


def run_arnoldi(P: MatrixPolynomial, u0, p: int) -> KrylovDecomposition:
    """Run p Arnoldi steps (fewer on lucky breakdown)."""
    p = _as_int("p", p)
    if p < 1:
        raise ValueError("p must be at least 1")
    it = InfiniteArnoldi(P, u0)
    while it.p < p and it.step():
        pass
    return it.decomposition()
