"""Arnoldi iteration on the block-Toeplitz operator with a growing basis.

Each iteration applies the structured matvec to the newest basis column,
which adds N blocks, so column j (0-based) of the basis is nonzero only in
its first n*(1+j*N) entries. `StaircaseBasis` stores just these prefixes,
packed into column-major chunks, and is the one place that knows the
layout. `AtTime` forms and sums the coefficient rows Q_p w of one t, and
`KrylovDecomposition.eps_factor` contracts q_{p+1}: no row or block leaves
the module.

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

The projection reads each column only over its significant blocks. Once
the operator is scaled, the trailing blocks of a column are tiny (A_0
dominates), and the column's projection length K (whole blocks) leaves a
tail whose 2-norm is at most u = 2^-53. For any y the dropped part of
q^H y is then at most u ||y||, below the rounding error bound
gamma_k ||q|| ||y|| of the computed inner product itself (Higham, Accuracy
and Stability of Numerical Algorithms, 2002, sec. 3.1), so the projection
is as accurate as the full one. The update is never cut: evaluation scales
block l by |gamma eps|^l, so each block of a column, however small, must
keep its own relative accuracy, which only the full prefix gives it.
"""

from __future__ import annotations

import bisect
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

#: Unit roundoff of float64; a column's tail past its projection length has
#: 2-norm at most this.
_U = 2.0 ** -53


def _row_magnitudes(rows: np.ndarray) -> np.ndarray:
    """Upper bound on max_i |rows[l, i]| for each row l, with no temporary
    the size of the rows: sqrt(2) max(|Re|, |Im|) for complex rows, +inf
    past the float range."""
    if np.iscomplexobj(rows):
        with np.errstate(over="ignore"):
            return math.sqrt(2.0) * _row_magnitudes(rows.view(rows.real.dtype))
    return np.maximum(rows.max(axis=1), -rows.min(axis=1))


def _cut(magnitudes: np.ndarray, formed: int, x) -> int | None:
    """Fewest leading rows L >= 1 with sum_{l>=L} |x|^l m_l <= u sum_l |x|^l m_l,
    for u = 2^-53, the float64 unit roundoff, from the magnitudes m of the
    first `formed` rows and upper bounds on the others (both in
    `magnitudes`); None while these do not settle L.

    The terms are compared in log space, so every finite x is covered. The
    left-out terms at L sum to between s_L, the formed ones, and s_L + b, b
    the bounded rest. L is settled when it surely meets the floor and L - 1
    surely does not, by a relative margin of 2^-20 that covers the rounding
    of the bounds; with every row formed the margin is 0 and L is always
    settled. The s_L come from one cumulative sum over the formed terms in
    reverse; as every term is >= 0, s_L + b does not increase with L, so one
    binary search finds the first L that meets the floor. x = 0 and
    all-zero magnitudes give 1 (once a row is formed); a non-finite
    magnitude (or x) gives all rows once all are formed, so an overflow is
    met as it would be in the full sum.
    """
    k, ax = len(magnitudes), abs(x)
    if formed == 0:
        return None
    if ax == 0.0:
        return 1
    if not math.isfinite(ax):
        return k if formed == k else None
    # l log|x| + log m_l, then the terms over the largest, in place
    logs = np.arange(k, dtype=np.float64)
    logs *= math.log(ax)
    with np.errstate(divide="ignore"):
        logs += np.log(magnitudes)
    top = np.maximum.reduce(logs)
    if not math.isfinite(top):
        return 1 if top == -math.inf else k if formed == k else None
    logs -= top
    terms = np.exp(logs, out=logs)
    margin = 0.0 if formed == k else 2.0 ** -20
    # c[j] = s_{formed-1-j}; s_formed = 0
    c = np.add.accumulate(terms[formed - 1::-1])
    b = float(np.add.reduce(terms[formed:])) * (1 + margin) if margin else 0.0
    floor = 2.0 ** -53 * c[-1] * (1 - margin)
    # c + b does not decrease, so its first J entries are those <= floor:
    # L = formed - J meets the floor and L - 1 does not
    J = int((c + b if b else c).searchsorted(floor, side="right"))
    if J == 0 and not b <= floor:
        return None
    L = formed - J
    if L > 1 and not c[J] > 2.0 ** -53 * (c[-1] + b) * (1 + margin):
        return None
    return L


def _power_sum(C: np.ndarray, x) -> np.ndarray:
    """sum_l x^l C[l] over the rows of C: one BLAS product per block of rows.

    Blocks hold b rows, with |x|^b finite (b = len(C) when |x| <= 1); Horner's
    rule in x^b joins the block sums. When one block holds every row, as
    whenever |x|^len(C) <= 1e300, its product is the answer. For real C and
    complex x the powers enter as a real (b, 2) matrix [Re, Im], so C is
    never cast to complex.
    """
    k = len(C)
    ax = abs(x)
    # |x|^b <= 1e300
    b = k if ax <= 1.0 else max(1, min(k, math.floor(300 / math.log10(ax))))
    complex_x = isinstance(x, (complex, np.complexfloating))
    # x^0 .. x^b in double precision: b is chosen for the float64 range
    powers = np.empty(b + 1, dtype=np.complex128 if complex_x else np.float64)
    powers[0] = 1.0
    powers[1:] = x
    np.multiply.accumulate(powers, out=powers)
    # real C, complex x: (b+1, 2) C-ordered [Re, Im] rows, a view of the powers
    V = powers.view(np.float64).reshape(-1, 2) if complex_x and C.dtype.kind != "c" else powers

    def product(block):
        s = block.T @ V[:len(block)]
        # (n, 2) C-ordered rows [Re, Im] read in place as complex
        return s.view(np.complex128)[:, 0] if s.ndim == 2 else s

    if b == k:
        return product(C)
    u = None
    for start in range((k - 1) // b * b, -1, -b):
        s = product(C[start:start + b])
        u = s if u is None else s + powers[b] * u
    return u


class StaircaseBasis:
    """Growing set of basis columns, column j holding n*(1+j*N) entries.

    Columns are packed into Fortran-order chunks of `CHUNK` columns, each
    allocated when its first column arrives and as tall as its last column.
    Chunks are never reallocated and stored columns never change, so views
    and readers of the first m columns stay valid while columns are appended.
    Entries of a chunk below a column's prefix are zero; readers go through
    `_blocks`, which leaves out of each slab the columns that end above it,
    and which can read a window of rows alone. Each chunk also keeps, for
    each of its columns, an upper bound nu_l on the largest magnitude in
    each block l of n rows (`_row_magnitudes`), so `row_bounds` can bound
    the blocks of Q_m w without reading the chunks, and `AtTime` forms only
    the blocks it needs.

    From nu each column also gets a projection length: the fewest leading
    whole blocks K >= 1 with n sum_{l>=K} nu_l^2 <= u^2, so its tail past
    K has 2-norm at most u (nu carries the sqrt(2) of complex entries).
    The lengths are kept as a running maximum, so they never decrease and
    never pass the prefix. `project` reads only these; `accumulate`,
    `AtTime` and `dense` read the full prefixes (module docstring).
    """

    def __init__(self, n: int, N: int, dtype):
        self.n = n
        self.N = N
        self.dtype = np.dtype(dtype)
        self._chunks: list[np.ndarray] = []
        self._maxima: list[np.ndarray] = []  # (blocks, CHUNK) per chunk
        self._prefix: list[int] = []  # length(j) of each column j
        self._reach: list[int] = []  # projection length of each column, in rows

    def length(self, j: int) -> int:
        """Prefix length of column j."""
        return self.n * (1 + j * self.N)

    @property
    def count(self) -> int:
        """Number of stored columns."""
        return len(self._prefix)

    @property
    def nbytes(self) -> int:
        """Bytes allocated for all chunks."""
        return sum(c.nbytes for c in self._chunks)

    def append(self, v: np.ndarray) -> None:
        """Store v as the next column; its length must be that column's prefix."""
        j = self.count
        if v.shape != (self.length(j),):
            raise ValueError(f"column {j} must have length {self.length(j)}, got {v.shape}")
        if j % CHUNK == 0:
            height = self.length(j + CHUNK - 1)
            self._chunks.append(np.zeros((height, CHUNK), dtype=self.dtype, order="F"))
            self._maxima.append(np.zeros((height // self.n, CHUNK)))
        column = self._chunks[-1][:v.size, j % CHUNK]
        column[:] = v
        nu = _row_magnitudes(column.reshape(-1, self.n))
        self._maxima[-1][:len(nu), j % CHUNK] = nu
        # the tail sums n sum_{l>=K} nu_l^2 for K = k-1, ..., 1 of the k blocks
        tails = self.n * np.cumsum(nu[:0:-1] ** 2)
        reach = self.n * (1 + int(np.count_nonzero(tails > _U * _U)))
        self._prefix.append(v.size)
        self._reach.append(max(reach, self._reach[-1]) if j else reach)

    def column(self, j: int) -> np.ndarray:
        """Contiguous read-only view of the nonzero prefix of column j."""
        if not 0 <= j < self.count:
            raise IndexError(f"column {j} out of range for {self.count} columns")
        v = self._chunks[j // CHUNK][:self.length(j), j % CHUNK]
        v.flags.writeable = False
        return v

    def _blocks(self, m: int, start: int = 0, stop: int | None = None,
                lengths: list[int] | None = None):
        """(first column, first row, block) triples covering columns 0..m-1,
        each column j over its first lengths[j] rows, in the slabs whose first
        row r has start <= r < stop (all by default), start a multiple of
        `SLAB`. The lengths must be nondecreasing and at most the prefixes;
        by default they are the prefixes.

        Each chunk is cut to the length of its last column and into slabs of
        at most `SLAB` rows, starting at multiples of `SLAB`. A slab starting
        at row r holds only the columns whose length passes row r, so the
        rows past a column's length are read only within the slab that
        holds its last row. A window reads the same slabs as the full pass
        does, so a row read in pieces gets the same products.

        `project` passes the projection lengths, whose cut drops at most
        u ||y|| from each inner product; everything else reads the full
        prefixes, as the blocks it forms are scaled by |gamma eps|^l.
        """
        if not 0 <= m <= self.count:
            raise ValueError(f"{m} columns requested, {self.count} stored")
        if lengths is None:
            lengths = self._prefix
        for a in range(0, m, CHUNK):
            b = min(a + CHUNK, m)
            height = lengths[b - 1]
            chunk = self._chunks[a // CHUNK]
            for r in range(start, height if stop is None else min(stop, height), SLAB):
                c = bisect.bisect_right(lengths, r, a, b)  # first c with lengths[c] > r
                yield c, r, chunk[r:min(r + SLAB, height), c - a:b - a]

    def project(self, Y: np.ndarray, m: int) -> np.ndarray:
        """Q_m^H y for each row y of Y, shape (rows, m), over the first m
        columns, each read over its projection length only: within u ||y||
        of the full product, below the product's own rounding bound.

        Y is a C-order (rows, length) array whose rows reach at least
        column m-1's length; each slab is one BLAS product over all rows.
        """
        G = np.zeros((len(Y), m), dtype=np.result_type(self.dtype, Y.dtype))
        Yc = Y.conj()
        for a, r, B in self._blocks(m, lengths=self._reach):
            G[:, a:a + B.shape[1]] += Yc[:, r:r + B.shape[0]] @ B
        return G.conj()

    def accumulate(self, y: np.ndarray, w: np.ndarray, start: int = 0,
                   stop: int | None = None) -> None:
        """y += Q_m w in place, with m = w.shape[-1], over the slabs of
        `_blocks(m, start, stop)`; for a 2-D y and w, row by row, one BLAS
        product per slab over all rows."""
        for a, r, B in self._blocks(w.shape[-1], start, stop):
            y[..., r:r + B.shape[0]] += w[..., a:a + B.shape[1]] @ B.T

    def row_bounds(self, w: np.ndarray) -> np.ndarray:
        """M_l = sum_j |w_j| nu_lj for each block l of column m-1 (m = len(w)),
        nu_lj the kept bound on block l of column j, so every entry of block
        l of Q_m w is at most M_l in magnitude, times the sqrt(2) of
        `_row_magnitudes` for complex Q_m w; +inf past the float range."""
        scale = math.sqrt(2.0) if np.iscomplexobj(w) or self.dtype.kind == "c" else 1.0
        w = np.abs(w)
        M = np.zeros(self.length(len(w) - 1) // self.n)
        with np.errstate(over="ignore"):
            for a in range(0, len(w), CHUNK):
                b = min(a + CHUNK, len(w))
                nu = self._maxima[a // CHUNK][:self.length(b - 1) // self.n, :b - a]
                M[:len(nu)] += nu @ w[a:b]
            M *= scale
        return M

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
    for tests and inspection. A solution reads only `p`, `beta`, `k_max`,
    `at`, `eps_factor` and `truncate`, and an `AtTime` only through
    `t_factor`, `evaluate` and `first`: rows and blocks stay in this module.
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

    @cached_property
    def residual_vector(self):
        """Read-only nonzero prefix of the basis vector q_{p+1}, or None on breakdown."""
        return None if self.breakdown else self.staircase.column(self.p)

    def eps_factor(self, x) -> float:
        """||sum_l x^l q_{p+1,l}|| over the 1+Np blocks of q_{p+1} (`_power_sum`):
        0.0 on lucky breakdown, NaN or +inf if the contraction overflows."""
        if self.breakdown:
            return 0.0
        q = self.residual_vector.reshape(-1, self.staircase.n)
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.linalg.norm(_power_sum(q, x)))

    @property
    def k_max(self) -> int:
        """Number of coefficient rows, 1 + N(p-1): the blocks of column p."""
        return 1 + self.staircase.N * (self.p - 1)

    def at(self, t: float) -> "AtTime":
        """The `AtTime` of w = beta exp(tH_p)e_1 and the estimate's t-factor
        |t beta h_{p+1,p} e_p^T phi_1(tH_p)e_1|, zero on breakdown, from one
        exponential; no rows formed. Overflow leaves w not finite, the
        t-factor +inf or NaN."""
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                e1, phi1 = phi_columns(self.hessenberg, t)
            except ValueError:  # tH_p overflows, and expm refuses non-finite input
                e1 = phi1 = np.full(self.p, math.inf)
            h = float(self.H[self.p, self.p - 1].real)
            t_factor = 0.0 if self.breakdown else float(abs(t * self.beta * h * phi1[-1]))
            return AtTime(self.staircase, e1 * self.beta, t_factor)

    def truncate(self, p: int) -> "KrylovDecomposition":
        """Decomposition after only the first p steps (shares storage)."""
        p = _as_int("p", p)
        if p == self.p:
            return self
        if not 1 <= p < self.p:
            raise ValueError(f"cannot truncate a {self.p}-step decomposition to p={p}")
        return replace(self, H=self.H[:p + 1, :p], p=p, breakdown=False)


class AtTime:
    """What depends on t alone, from one small exponential: w, read-only, the
    estimate's t-factor, and the coefficient rows Q_m w (m = len(w)), which
    only `evaluate` and `first` (read-only views) read.

    `_rows` is a C-order (k, n) array, k the blocks of column m-1, whose
    first `_formed` rows are formed. `_magnitudes` holds `_row_magnitudes`
    of the formed rows and `row_bounds` of the others. Both are made on
    first use, which raises FloatingPointError if w is not finite.
    """

    def __init__(self, basis: StaircaseBasis, w: np.ndarray, t_factor: float):
        w.flags.writeable = False
        self._basis, self.w, self.t_factor = basis, w, t_factor
        self._formed = 0

    @cached_property
    def _magnitudes(self) -> np.ndarray:
        if not np.all(np.isfinite(self.w)):
            raise FloatingPointError("exp(tH_p) overflows")
        return self._basis.row_bounds(self.w)

    @cached_property
    def _rows(self) -> np.ndarray:
        return np.empty((len(self._magnitudes), self._basis.n),
                        dtype=np.result_type(self._basis.dtype, self.w.dtype))

    def evaluate(self, x) -> np.ndarray:
        """`_power_sum` of the leading L rows, L the `_cut` at x. Rows are
        formed until their magnitudes and the bounds on the rows not formed
        settle L, so L and the answer do not depend on which rows earlier
        calls formed."""
        while (L := _cut(self._magnitudes, self._formed, x)) is None:
            guess = _cut(self._magnitudes, len(self._magnitudes), x)
            self._form(max(guess, self._formed) + 1)
        return _power_sum(self._rows[:L], x)

    def first(self, k: int) -> np.ndarray:
        """Read-only view of the first k rows, shape (k, n)."""
        self._form(k)
        rows = self._rows[:k]
        rows.flags.writeable = False
        return rows

    def _form(self, k: int) -> None:
        """Form at least the first k rows (all for k > len(_rows)).

        Rows are formed whole basis slabs at a time, with the products of
        the full pass, so rows formed in pieces are those of one pass bit
        for bit; rows past the last slab formed are not written.
        """
        if min(k, len(self._rows)) > self._formed:
            n, flat = self._basis.n, self._rows.reshape(-1)
            # both ends on slab boundaries, as `_blocks` needs: the formed
            # rows end at the first boundary past them (or at the end)
            start, stop = (min(-(-r * n // SLAB) * SLAB, flat.size) for r in (self._formed, k))
            # written before the products read it: np.zeros' pages would fault
            # on the read (zero page) and again on the first write (copy)
            flat[start:stop].fill(0)
            self._basis.accumulate(flat, self.w, start, stop)
            done, self._formed = self._formed, stop // n
            self._magnitudes[done:self._formed] = _row_magnitudes(self._rows[done:self._formed])


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
