"""Matrix polynomials and the lower block-triangular block-Toeplitz operator.

The operator maps a vector with finitely many nonzero leading blocks to one
with N more nonzero blocks, so it never has to be assembled; the explicit
assembly here exists as a test oracle and dense-reference substrate.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .linalg import as_csr, norm_bound

#: Cap on m*n for explicit operator assembly (oracle-only usage).
ASSEMBLY_CAP = 200_000


class MatrixPolynomial:
    """Coefficients of A(eps) = A_0 + eps A_1 + ... + eps^N A_N.

    All coefficients are square sparse matrices of one common dimension.
    """

    def __init__(self, coeffs):
        mats = tuple(as_csr(C) for C in coeffs)
        if not mats:
            raise ValueError("at least one coefficient matrix is required")
        n = mats[0].shape[0]
        for i, C in enumerate(mats):
            if C.shape != (n, n):
                raise ValueError(
                    f"coefficient {i} has shape {C.shape}, expected ({n}, {n})"
                )
        self.coeffs = mats
        self.dim = n
        self.degree = len(mats) - 1

    @cached_property
    def _norm_bounds(self) -> tuple[float, ...]:
        """`norm_bound` of each coefficient, computed once, on first use."""
        return tuple(norm_bound(C) for C in self.coeffs)

    @property
    def dtype(self):
        return np.result_type(np.float64, *(C.dtype for C in self.coeffs))

    def __call__(self, eps) -> sp.csr_array:
        """Evaluate the polynomial at a scalar parameter value."""
        acc = self.coeffs[-1].astype(np.result_type(self.dtype, type(eps)))
        for C in self.coeffs[-2::-1]:
            acc = C + eps * acc
        return as_csr(acc)

    def scaled(self, gamma: float) -> "MatrixPolynomial":
        """Polynomial with coefficients gamma**(-l) * A_l.

        Evaluating the result at gamma*eps reproduces A(eps).
        """
        if not (gamma > 0 and np.isfinite(gamma)):
            raise ValueError("gamma must be positive and finite")
        return MatrixPolynomial(
            [C * (gamma ** -l) for l, C in enumerate(self.coeffs)]
        )


def assemble_lm(P: MatrixPolynomial, m: int) -> sp.csr_array:
    """Explicit mn x mn block-Toeplitz operator with block (i, j) = A_{i-j}.

    Only bands 0 <= i-j <= min(m-1, N) are present. Test oracle; refuses to
    assemble beyond `ASSEMBLY_CAP` total rows.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    n = P.dim
    if m * n > ASSEMBLY_CAP:
        raise ValueError(f"assembly of a {m * n}x{m * n} operator exceeds cap {ASSEMBLY_CAP}")
    nhat = min(m - 1, P.degree)
    L = sp.csr_array((m * n, m * n), dtype=P.dtype)
    for i in range(nhat + 1):
        L = L + sp.kron(sp.eye_array(m, k=-i), P.coeffs[i])
    return as_csr(L)


def structured_matvec(P: MatrixPolynomial, x: np.ndarray) -> np.ndarray:
    """Apply the block-Toeplitz operator to a vector of j nonzero blocks.

    `x` holds the nonzero prefix, j*n entries for some j >= 1; the implicit
    trailing blocks are zero. The result has exactly j+N blocks with
    y_l = sum_i A_i x_{l-i} over max(0, l-j) <= i <= min(N, l-1) (1-based l).
    """
    x = np.asarray(x)
    n = P.dim
    if x.ndim != 1 or x.size == 0 or x.size % n != 0:
        raise ValueError(
            f"block-size mismatch: vector length {x.size} is not a positive "
            f"multiple of block size {n}"
        )
    y = np.zeros(x.size + n * P.degree, dtype=np.result_type(P.dtype, x.dtype))
    structured_matvec_add(P, x, y)
    return y


def structured_matvec_add(P: MatrixPolynomial, x: np.ndarray, y: np.ndarray) -> None:
    """y += L x in place, for contiguous x of j whole blocks and y of exactly
    j+N blocks; unchecked, for callers that keep their own output buffer."""
    n = P.dim
    X = x.reshape(-1, n)
    Y = y.reshape(-1, n)
    j = len(X)
    # one C-ordered copy shared by all N+1 products; scipy would otherwise
    # copy the F-ordered X.T afresh for each of them
    XT = np.ascontiguousarray(X.T)
    for i, A in enumerate(P.coeffs):
        Y[i:i + j] += (A @ XT).T


def heuristic_gamma(P: MatrixPolynomial) -> float:
    """Balancing parameter max_l ||A_l||^(1/l) over l >= 1 (1 if that set is empty/zero)."""
    roots = [b ** (1.0 / l) for l, b in enumerate(P._norm_bounds[1:], start=1)]
    return max(roots, default=0.0) or 1.0
