import numpy as np
import pytest

import paramexpmv.reference
from paramexpmv.reference import dense_coefficients, dense_solution, textbook_arnoldi
from paramexpmv.toeplitz import MatrixPolynomial, assemble_lm


def test_dense_solution_scalar_exact():
    # u' = (a + eps b) u has the closed form e^{t(a + eps b)} u0
    P = MatrixPolynomial([np.array([[0.7]]), np.array([[-0.2]])])
    u0 = np.array([2.0])
    t, eps = 1.3, 0.5
    expected = np.exp(t * (0.7 - 0.2 * eps)) * 2.0
    assert dense_solution(P, u0, t, eps)[0] == pytest.approx(expected, rel=1e-12)


def test_dense_solution_commuting_pair():
    D0 = np.diag([0.1, -0.3])
    D1 = np.diag([0.5, 0.2])
    P = MatrixPolynomial([D0, D1])
    u0 = np.array([1.0, 1.0])
    t, eps = 0.8, 0.25
    expected = np.exp(t * (np.diag(D0) + eps * np.diag(D1)))
    np.testing.assert_allclose(dense_solution(P, u0, t, eps), expected, rtol=1e-12)


def test_dense_coefficients_scalar_shift():
    # A0 = 0, A1 = 1: c_l(t) = t^l / l!
    import math

    P = MatrixPolynomial([np.zeros((1, 1)), np.ones((1, 1))])
    C = dense_coefficients(P, np.ones(1), 0.7, 8)
    for ell in range(8):
        assert C[ell, 0] == pytest.approx(0.7**ell / math.factorial(ell), rel=1e-12)


def test_dense_coefficients_sum_to_solution():
    # for nilpotent-in-eps truncation, summing eps^l c_l over enough terms
    # reproduces the dense solution when |eps| is small
    rng = np.random.default_rng(0)
    n = 4
    P = MatrixPolynomial([rng.standard_normal((n, n)) * 0.4 for _ in range(2)])
    u0 = rng.standard_normal(n)
    t, eps = 0.9, 1e-3
    C = dense_coefficients(P, u0, t, 10)
    series = sum(eps**ell * C[ell] for ell in range(10))
    ref = dense_solution(P, u0, t, eps)
    np.testing.assert_allclose(series, ref, atol=1e-12)


def test_dense_solution_respects_cap(monkeypatch):
    monkeypatch.setattr(paramexpmv.reference, "DENSE_CAP", 3)
    P = MatrixPolynomial([np.eye(5), np.eye(5)])
    with pytest.raises(ValueError):
        dense_solution(P, np.ones(5), 1.0, 0.1)


def test_textbook_arnoldi_decomposition_relation():
    rng = np.random.default_rng(1)
    n = 12
    A = rng.standard_normal((n, n))
    v0 = rng.standard_normal(n)
    d = textbook_arnoldi(A, v0, 6)
    Q = d.Q[:, :7]
    np.testing.assert_allclose(A @ Q[:, :6], Q @ d.H, atol=1e-12)
    np.testing.assert_allclose(Q.T @ Q, np.eye(7), atol=1e-13)


def test_textbook_arnoldi_accepts_sparse():
    rng = np.random.default_rng(2)
    P = MatrixPolynomial([rng.standard_normal((3, 3)) * 0.5 for _ in range(2)])
    L = assemble_lm(P, 4)
    v0 = np.zeros(12)
    v0[:3] = 1.0
    d = textbook_arnoldi(L, v0, 5)
    assert d.H.shape == (6, 5)
