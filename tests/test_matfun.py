import numpy as np
import pytest
import scipy.linalg

from paramexpmv.matfun import expm, phi_columns


def _phi_series(A, k, terms=60):
    """Taylor-series oracle for phi_k(A) e_1."""
    import math

    p = A.shape[0]
    out = np.zeros(A.shape, dtype=A.dtype)
    term = np.eye(p, dtype=A.dtype)
    for j in range(terms):
        out = out + term / math.factorial(j + k)
        term = term @ A
    return out[:, 0]


def test_expm_matches_scipy():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 8))
    np.testing.assert_allclose(expm(A), scipy.linalg.expm(A), rtol=1e-12)


def test_expm_rejects_nonsquare():
    with pytest.raises(ValueError):
        expm(np.ones((2, 3)))


def test_expm_rejects_nonfinite():
    A = np.eye(3)
    A[0, 0] = np.nan
    with pytest.raises(ValueError):
        expm(A)


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
def test_phi_columns_against_series(t):
    rng = np.random.default_rng(3)
    H = np.triu(rng.standard_normal((6, 6)), -1) * 0.7
    exp_col, phi1_col = phi_columns(H, t)
    np.testing.assert_allclose(exp_col, scipy.linalg.expm(t * H)[:, 0], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(exp_col, _phi_series(t * H, 0), rtol=1e-10, atol=1e-13)
    np.testing.assert_allclose(phi1_col, _phi_series(t * H, 1), rtol=1e-10, atol=1e-13)


def test_phi_columns_scalar_identities():
    # exp(tz) and phi1(tz) = (e^{tz} - 1)/(tz)
    z, t = 0.83, 1.7
    exp_col, phi1_col = phi_columns(np.array([[z]]), t)
    assert exp_col[0] == pytest.approx(np.exp(t * z), rel=1e-12)
    assert phi1_col[0] == pytest.approx((np.exp(t * z) - 1) / (t * z), rel=1e-12)


def test_phi_columns_complex():
    rng = np.random.default_rng(4)
    H = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H = np.triu(H, -1) * 0.5
    exp_col, phi1_col = phi_columns(H, 0.9)
    np.testing.assert_allclose(exp_col, scipy.linalg.expm(0.9 * H)[:, 0], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(phi1_col, _phi_series(0.9 * H, 1), rtol=1e-10, atol=1e-13)
