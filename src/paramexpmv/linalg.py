"""Sparse/dense linear-algebra primitives: norm bounds, norm estimates, MatrixMarket I/O.

Sparse matrices are scipy CSR arrays in canonical form (sorted indices,
duplicates merged); vectors and small dense matrices are plain numpy arrays.
Real and complex scalars are both supported. The solver's norm data come
from the O(nnz) bounds, each coefficient's `norm_bound` computed once per
polynomial and shared by γ and the a priori bounds; the Lanczos estimators
are standalone utilities.
"""

from __future__ import annotations

import operator

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread, mmwrite
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

#: Dimension at or below which norms are computed by direct dense reductions.
DENSE_CUTOFF = 64

#: Seed for the deterministic start vector of the iterative eigensolves.
_START_SEED = 1234


class NormEstimateError(RuntimeError):
    """Iterative norm estimation did not converge within the iteration cap."""

    def __init__(self, what: str, iterations: int, last_estimate: float):
        super().__init__(
            f"{what} did not converge after {iterations} iterations "
            f"(last estimate {last_estimate:.6e})"
        )
        self.iterations = iterations
        self.last_estimate = last_estimate


def _as_int(name: str, value) -> int:
    """value as an int (numpy integers included); ValueError naming it otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def as_csr(A) -> sp.csr_array:
    """Convert to a canonical CSR array (duplicates merged, indices sorted)."""
    M = sp.csr_array(A)
    M.sum_duplicates()
    M.sort_indices()
    return M


def norm_bound(A) -> float:
    """Upper bound sqrt(||A||_1 ||A||_inf) on the spectral norm of A, in O(nnz)."""
    absA = abs(as_csr(A))
    return float(np.sqrt(absA.sum(axis=0).max(initial=0.0) * absA.sum(axis=1).max(initial=0.0)))


def log_norm_bound(A) -> float:
    """Gershgorin upper bound on the logarithmic norm of A, in O(nnz).

    Returns max_i (Re h_ii + sum_{j != i} |h_ij|) of the Hermitian part
    H = (A + A^H)/2, which bounds its largest eigenvalue from above.
    """
    H = _hermitian_part(A)
    d = H.diagonal()
    radii = abs(H - sp.diags_array(d)).sum(axis=1)
    return float(np.max(d.real + radii))


def _hermitian_part(A) -> sp.csr_array:
    A = as_csr(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("logarithmic norm requires a square matrix")
    return as_csr((A + A.conj().T) * 0.5)


def _start_vector(n: int) -> np.ndarray:
    rng = np.random.default_rng(_START_SEED)
    return rng.standard_normal(n)


def two_norm_estimate(A, tol: float = 1e-8) -> float:
    """Estimate the spectral norm of A to relative accuracy tol.

    Small matrices (min dimension <= DENSE_CUTOFF) use a dense SVD; larger
    ones a Lanczos iteration on the Gram operator of the thinner side.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    A = as_csr(A)
    if A.nnz == 0:
        return 0.0
    m, n = A.shape
    if min(m, n) <= DENSE_CUTOFF:
        return float(np.linalg.svd(A.toarray(), compute_uv=False)[0])
    B = A if n <= m else as_csr(A.conj().T)
    BH = as_csr(B.conj().T)
    k = B.shape[1]
    op = LinearOperator((k, k), matvec=lambda v: BH @ (B @ v), dtype=B.dtype)
    maxiter = 10 * k
    try:
        w = eigsh(op, k=1, which="LM", tol=tol, v0=_start_vector(k),
                  maxiter=maxiter, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        last = float(np.sqrt(max(exc.eigenvalues[0], 0.0))) if len(exc.eigenvalues) else float("nan")
        raise NormEstimateError("two-norm estimation", maxiter, last) from exc
    return float(np.sqrt(max(w[0], 0.0)))


def log_norm(A, tol: float = 1e-8) -> float:
    """Logarithmic norm: the largest eigenvalue of the Hermitian part (A+A^H)/2.

    Accurate to tol*(||A||_2 + 1); dense symmetric eigensolve for dimensions
    up to DENSE_CUTOFF, Lanczos otherwise.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    H = _hermitian_part(A)
    n = H.shape[0]
    if H.nnz == 0:
        return 0.0
    if n <= DENSE_CUTOFF:
        return float(np.linalg.eigvalsh(H.toarray())[-1])
    maxiter = 10 * n
    try:
        w = eigsh(H, k=1, which="LA", tol=tol, v0=_start_vector(n),
                  maxiter=maxiter, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        last = float(exc.eigenvalues[0]) if len(exc.eigenvalues) else float("nan")
        raise NormEstimateError("logarithmic-norm estimation", maxiter, last) from exc
    return float(w[0])


def load_matrix(path) -> sp.csr_array:
    """Read a MatrixMarket coordinate/array file; symmetry is expanded."""
    return as_csr(mmread(path))


def save_matrix(path, A) -> None:
    """Write a sparse matrix in MatrixMarket coordinate format."""
    mmwrite(path, sp.coo_array(as_csr(A)))


def load_vector(path) -> np.ndarray:
    """Read a vector (n x 1 MatrixMarket file) as a 1-D array."""
    v = mmread(path)
    if sp.issparse(v):
        v = v.toarray()
    v = np.asarray(v)
    if v.ndim == 2 and 1 in v.shape:
        v = v.ravel()
    if v.ndim != 1:
        raise ValueError(f"{path}: expected a vector, got shape {v.shape}")
    return v


def save_vector(path, v) -> None:
    """Write a 1-D array as an n x 1 MatrixMarket array file."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError("expected a 1-D array")
    mmwrite(path, v.reshape(-1, 1))
