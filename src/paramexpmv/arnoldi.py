"""Arnoldi iteration on the block-Toeplitz operator with a growing basis.

Each iteration applies the structured matvec to the newest basis column,
which adds N blocks, so column j (0-based) of the basis is nonzero only in
its first n*(1+j*N) entries. `StaircaseBasis` stores just these prefixes,
packed into column-major chunks, and is the one place that knows the
layout. Orthogonalization is classical Gram-Schmidt, always performed
twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _as_int
from .toeplitz import MatrixPolynomial, structured_matvec

#: Relative residual below which an iteration is declared a lucky breakdown.
BREAKDOWN_TOL = 1e-14

#: Basis columns per storage chunk. Each chunk is as tall as its last column,
#: so larger chunks stream more zeros and smaller ones make more BLAS calls.
CHUNK = 16


class StaircaseBasis:
    """Growing set of basis columns, column j holding n*(1+j*N) entries.

    Columns are packed into Fortran-order chunks of `CHUNK` columns, each
    allocated when its first column arrives and as tall as its last column.
    Chunks are never reallocated and stored columns never change, so views
    and readers of the first m columns stay valid while columns are appended.
    Entries of a chunk below a column's prefix are zero.
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
        """(first column, block) pairs covering columns 0..m-1, each block cut
        to the prefix of its last column."""
        if not 0 <= m <= self._count:
            raise ValueError(f"{m} columns requested, {self._count} stored")
        for a in range(0, m, CHUNK):
            b = min(a + CHUNK, m)
            yield a, self._chunks[a // CHUNK][:self.length(b - 1), :b - a]

    def project(self, y: np.ndarray, m: int) -> np.ndarray:
        """Q_m^H y for the first m columns; y needs at least column m-1's length."""
        h = np.empty(m, dtype=np.result_type(self.dtype, y.dtype))
        yc = y.conj()
        for a, B in self._blocks(m):
            h[a:a + B.shape[1]] = B.T @ yc[:B.shape[0]]
        return h.conj()

    def accumulate(self, y: np.ndarray, w: np.ndarray) -> None:
        """y += Q_m w in place, with m = len(w)."""
        for a, B in self._blocks(len(w)):
            y[:B.shape[0]] += B @ w[a:a + B.shape[1]]

    def combine(self, w: np.ndarray) -> np.ndarray:
        """Q_m w with m = len(w) >= 1; the result has column m-1's length."""
        out = np.zeros(self.length(len(w) - 1), dtype=np.result_type(self.dtype, w.dtype))
        self.accumulate(out, w)
        return out

    def dense(self, m: int) -> np.ndarray:
        """The first m columns zero-padded to column m-1's length, as a new array."""
        Q = np.zeros((self.length(m - 1), m), dtype=self.dtype, order="F")
        for a, B in self._blocks(m):
            Q[:B.shape[0], a:a + B.shape[1]] = B
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
    for tests and inspection; the library itself reads only `staircase`.
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
    def residual_norm(self) -> float:
        """Subdiagonal entry h_{p+1,p} (zero on breakdown)."""
        return 0.0 if self.breakdown else float(self.H[self.p, self.p - 1].real)

    @property
    def residual_vector(self):
        """Read-only nonzero prefix of the basis vector q_{p+1}, or None on breakdown."""
        return None if self.breakdown else self.staircase.column(self.p)

    def truncate(self, p: int) -> "KrylovDecomposition":
        """Decomposition after only the first p steps (shares storage)."""
        p = _as_int("p", p)
        if p == self.p:
            return self
        if not 1 <= p < self.p:
            raise ValueError(f"cannot truncate a {self.p}-step decomposition to p={p}")
        return KrylovDecomposition(
            staircase=self.staircase,
            H=self.H[:p + 1, :p],
            beta=self.beta,
            p=p,
            breakdown=False,
        )


class InfiniteArnoldi:
    """Incremental Arnoldi process for the block-Toeplitz operator.

    Mutable single-owner builder; :meth:`decomposition` returns immutable
    snapshots that remain valid as iteration continues.
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
        self._basis.append(u0 / beta)

    def _ensure_capacity(self, cols: int) -> None:
        hr, hc = self._H.shape
        if cols > hr or cols - 1 > hc:
            newH = np.zeros((max(cols, 2 * hr), max(cols - 1, 2 * hc)), dtype=self._dtype)
            newH[:hr, :hc] = self._H
            self._H = newH

    def step(self) -> bool:
        """Run one iteration. Returns False on (or after) lucky breakdown.

        Raises FloatingPointError, leaving the state as before the call, if
        the matvec output has a non-finite norm.
        """
        if self.breakdown:
            return False
        ell = self.p + 1
        y = structured_matvec(self.poly, self._basis.column(ell - 1))
        norm_y = np.linalg.norm(y)
        if not np.isfinite(norm_y):
            raise FloatingPointError(
                f"Arnoldi step {ell}: the operator applied to q_{ell} has "
                f"non-finite norm {norm_y}"
            )
        self._ensure_capacity(ell + 1)

        # CGS, unconditionally repeated once (CGS2)
        h = self._basis.project(y, ell)
        self._basis.accumulate(y, -h)
        g = self._basis.project(y, ell)
        self._basis.accumulate(y, -g)
        h += g

        alpha = float(np.linalg.norm(y))
        self._H[:ell, ell - 1] = h
        self.p = ell
        if alpha <= BREAKDOWN_TOL * norm_y:
            self._H[ell, ell - 1] = 0.0
            self.breakdown = True
            return False
        self._H[ell, ell - 1] = alpha
        y /= alpha
        self._basis.append(y)
        return True

    def decomposition(self) -> KrylovDecomposition:
        """Immutable snapshot of the current state."""
        if self.p == 0:
            raise ValueError("no iterations performed yet")
        return KrylovDecomposition(
            staircase=self._basis,
            H=self._H[:self.p + 1, :self.p],
            beta=self.beta,
            p=self.p,
            breakdown=self.breakdown,
        )


def run_arnoldi(P: MatrixPolynomial, u0, p: int) -> KrylovDecomposition:
    """Run p Arnoldi steps (fewer on lucky breakdown)."""
    p = _as_int("p", p)
    if p < 1:
        raise ValueError("p must be at least 1")
    it = InfiniteArnoldi(P, u0)
    while it.p < p and it.step():
        pass
    return it.decomposition()
