import numpy as np
import pytest

from paramexpmv.linalg import as_csr
from paramexpmv.toeplitz import (
    MatrixPolynomial,
    assemble_lm,
    heuristic_gamma,
    structured_matvec,
    structured_matvec_add,
)


def random_poly(rng, n, N, scale=1.0):
    return MatrixPolynomial([rng.standard_normal((n, n)) * scale for _ in range(N + 1)])


def test_polynomial_basic_properties():
    rng = np.random.default_rng(0)
    P = random_poly(rng, 4, 2)
    assert P.dim == 4
    assert P.degree == 2
    assert len(P.coeffs) == 3


def test_polynomial_call_is_horner_sum():
    rng = np.random.default_rng(1)
    mats = [rng.standard_normal((3, 3)) for _ in range(3)]
    P = MatrixPolynomial(mats)
    eps = 0.37
    expected = mats[0] + eps * mats[1] + eps**2 * mats[2]
    np.testing.assert_allclose(P(eps).toarray(), expected, rtol=1e-13)


def test_polynomial_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        MatrixPolynomial([np.eye(2), np.eye(3)])


def test_polynomial_rejects_empty():
    with pytest.raises(ValueError):
        MatrixPolynomial([])


def test_assemble_lm_block_structure():
    rng = np.random.default_rng(2)
    n, N, m = 3, 2, 5
    P = random_poly(rng, n, N)
    L = assemble_lm(P, m).toarray()
    assert L.shape == (m * n, m * n)
    for i in range(m):
        for j in range(m):
            block = L[i * n:(i + 1) * n, j * n:(j + 1) * n]
            d = i - j
            if 0 <= d <= N:
                np.testing.assert_allclose(block, P.coeffs[d].toarray())
            else:
                assert not block.any()


def test_assemble_lm_size_cap():
    P = MatrixPolynomial([np.eye(100)])
    with pytest.raises(ValueError):
        assemble_lm(P, 3000)


@pytest.mark.parametrize("n,N,j", [(2, 1, 1), (3, 2, 4), (5, 4, 5), (4, 3, 2)])
def test_structured_matvec_matches_assembled(n, N, j):
    rng = np.random.default_rng(n * 100 + N * 10 + j)
    P = random_poly(rng, n, N)
    x = rng.standard_normal(j * n)
    y = structured_matvec(P, x)
    assert y.size == (j + N) * n
    m = j + N
    L = assemble_lm(P, m).toarray()
    xpad = np.zeros(m * n)
    xpad[:j * n] = x
    np.testing.assert_allclose(y, L @ xpad, atol=1e-13)


def test_structured_matvec_complex():
    rng = np.random.default_rng(7)
    P = random_poly(rng, 3, 2)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    y = structured_matvec(P, x)
    L = assemble_lm(P, 4).toarray()
    xpad = np.zeros(12, dtype=complex)
    xpad[:6] = x
    np.testing.assert_allclose(y, L @ xpad, atol=1e-13)


@pytest.mark.parametrize("complex_coeffs", [False, True])
@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_structured_matvec_add_bit_identical_to_per_product_transpose(N, complex_coeffs):
    # sharing one C-ordered copy of X.T feeds every product the same numbers
    rng = np.random.default_rng(10 * N + complex_coeffs)
    n, j = 7, 4
    mats = [rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5) for _ in range(N + 1)]
    if complex_coeffs:
        mats = [A + 1j * rng.standard_normal((n, n)) for A in mats]
    P = MatrixPolynomial(mats)
    for x in (rng.standard_normal(j * n), rng.standard_normal(n)):
        y = rng.standard_normal((len(x) // n + N) * n).astype(P.dtype)
        ref = y.copy()
        X, Y = x.reshape(-1, n), ref.reshape(-1, n)
        for i, A in enumerate(P.coeffs):
            Y[i:i + len(X)] += (A @ X.T).T
        structured_matvec_add(P, x, y)
        np.testing.assert_array_equal(y, ref)


def test_heuristic_gamma_value():
    A0 = np.zeros((2, 2))
    A1 = 3.0 * np.eye(2)
    A2 = 16.0 * np.eye(2)
    P = MatrixPolynomial([A0, A1, A2])
    # max(3, sqrt(16)) = 4
    assert heuristic_gamma(P) == pytest.approx(4.0, rel=1e-6)


def test_heuristic_gamma_all_zero_tail():
    P = MatrixPolynomial([np.eye(3), np.zeros((3, 3))])
    assert heuristic_gamma(P) == 1.0


def test_scaled_polynomial_equivalence():
    rng = np.random.default_rng(8)
    P = random_poly(rng, 4, 2)
    gamma = 2.5
    Q = P.scaled(gamma)
    eps = 0.3
    # A(eps) is invariant: sum gamma^-l A_l (gamma eps)^l = sum A_l eps^l
    np.testing.assert_allclose(Q(gamma * eps).toarray(), P(eps).toarray(), rtol=1e-12)


def test_scaled_coefficient_norms():
    rng = np.random.default_rng(9)
    P = random_poly(rng, 3, 2)
    Q = P.scaled(4.0)
    for ell, (a, b) in enumerate(zip(P.coeffs, Q.coeffs)):
        np.testing.assert_allclose(b.toarray(), a.toarray() / 4.0**ell, rtol=1e-13)


def test_dtype_promotion():
    P = MatrixPolynomial([np.eye(2), 1j * np.eye(2)])
    assert np.issubdtype(P.dtype, np.complexfloating)


def test_accepts_sparse_inputs():
    A0 = as_csr(np.eye(3))
    A1 = as_csr(np.diag([1.0, 2.0, 3.0]))
    P = MatrixPolynomial([A0, A1])
    np.testing.assert_allclose(P(2.0).toarray(), np.eye(3) + 2 * np.diag([1.0, 2.0, 3.0]))
