"""Dense brute-force oracles used by the test suite and for small references."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .arnoldi import BREAKDOWN_TOL, KrylovDecomposition, StaircaseBasis
from .matfun import expm
from .toeplitz import MatrixPolynomial, assemble_lm

#: Largest dimension the dense oracles exponentiate.
DENSE_CAP = 2000


def _check_cap(size: int) -> None:
    if size > DENSE_CAP:
        raise ValueError(f"dense reference of dimension {size} exceeds cap {DENSE_CAP}")


def dense_solution(P: MatrixPolynomial, u0, t: float, eps) -> np.ndarray:
    """exp(t A(eps)) u0 by direct dense exponentiation."""
    _check_cap(P.dim)
    u0 = np.asarray(u0).ravel()
    A = P(eps).toarray()
    return expm(t * A) @ u0


def dense_coefficients(P: MatrixPolynomial, u0, t: float, m: int) -> np.ndarray:
    """First m expansion coefficients, rows of shape (m, n).

    Computed as exp(t L_m) applied to e_1 (x) u0, sliced into blocks.
    """
    n = P.dim
    _check_cap(m * n)
    L = assemble_lm(P, m).toarray()
    w = np.zeros(m * n, dtype=np.result_type(L.dtype, np.asarray(u0).dtype))
    w[:n] = np.asarray(u0).ravel()
    return (expm(t * L) @ w).reshape(m, n)


def textbook_arnoldi(B, v0, p: int) -> KrylovDecomposition:
    """Plain Arnoldi with CGS2 on an explicitly given matrix.

    Independent of the structured iteration; used as the equivalence oracle.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if sp.issparse(B):
        B = sp.csr_array(B)
    else:
        B = np.asarray(B)
    n = B.shape[0]
    if B.shape != (n, n):
        raise ValueError("B must be square")
    v0 = np.asarray(v0).ravel()
    if v0.size != n:
        raise ValueError("start vector length does not match B")
    beta = float(np.linalg.norm(v0))
    if beta == 0.0:
        raise ValueError("start vector must be nonzero")

    dtype = np.result_type(B.dtype, v0.dtype, np.float64)
    Q = np.zeros((n, p + 1), dtype=dtype)
    H = np.zeros((p + 1, p), dtype=dtype)
    Q[:, 0] = v0 / beta
    breakdown = False
    done = 0
    for ell in range(1, p + 1):
        y = B @ Q[:, ell - 1]
        norm_y = np.linalg.norm(y)
        Qv = Q[:, :ell]
        h = Qv.conj().T @ y
        y = y - Qv @ h
        g = Qv.conj().T @ y
        y -= Qv @ g
        h = h + g
        alpha = float(np.linalg.norm(y))
        H[:ell, ell - 1] = h
        done = ell
        if alpha <= BREAKDOWN_TOL * norm_y:
            breakdown = True
            break
        H[ell, ell - 1] = alpha
        Q[:, ell] = y / alpha

    # degree 0: every column keeps all n entries
    basis = StaircaseBasis(n, 0, dtype)
    for j in range(done if breakdown else done + 1):
        basis.append(Q[:, j])
    return KrylovDecomposition(
        staircase=basis,
        H=H[:done + 1, :done],
        beta=beta,
        p=done,
        breakdown=breakdown,
    )
