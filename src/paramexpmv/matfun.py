"""Dense matrix exponential and the exp/phi_1 columns of a projected matrix.

Intended for small projected Hessenberg matrices and desk-scale dense
reference computations, not for large operators.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def expm(A) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return scipy.linalg.expm(A)


def phi_columns(H, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Return exp(tH)e_1 and phi_1(tH)e_1 from one augmented exponential.

    exp([[tH, e_1], [0, 0]]) = [[exp(tH), phi_1(tH)e_1], [0, 1]], so the
    (p+1)-dimensional exponential gives the first vector in its first
    column and the second in its last.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    p = H.shape[0]
    W = np.zeros((p + 1, p + 1), dtype=np.result_type(H.dtype, float, type(t)))
    W[:p, :p] = t * H
    W[0, p] = 1.0
    E = expm(W)
    return E[:p, 0], E[:p, p]
