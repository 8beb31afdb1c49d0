import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from paramexpmv.linalg import (
    DENSE_CUTOFF,
    as_csr,
    load_matrix,
    load_vector,
    log_norm,
    log_norm_bound,
    norm_bound,
    save_matrix,
    save_vector,
    two_norm_estimate,
)


def test_as_csr_from_dense():
    A = np.array([[1.0, 2.0], [0.0, 3.0]])
    M = as_csr(A)
    assert sp.issparse(M)
    assert M.format == "csr"
    np.testing.assert_allclose(M.toarray(), A)


def test_as_csr_passthrough_keeps_values():
    A = sp.random_array((6, 6), density=0.4, random_state=np.random.default_rng(0))
    M = as_csr(A)
    np.testing.assert_allclose(M.toarray(), A.toarray())


def diffusion_stencil(n):
    """tridiag(1, -2, 1) of dimension n."""
    return as_csr(sp.diags_array([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                                 offsets=[-1, 0, 1]))


@st.composite
def sparse_square(draw):
    """Random sparse square matrix, real or complex, up to n = 100 > DENSE_CUTOFF."""
    n = draw(st.integers(1, 100))
    density = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    A = sp.random_array((n, n), density=density, random_state=rng, data_sampler=rng.standard_normal)
    if draw(st.booleans()):
        B = sp.random_array((n, n), density=density, random_state=rng, data_sampler=rng.standard_normal)
        A = A + 1j * B
    return as_csr(A * scale)


@settings(max_examples=60, deadline=None)
@given(sparse_square())
def test_norm_bounds_dominate_dense_values(A):
    # Only rounding slack: both are upper bounds, never estimates from below.
    D = A.toarray()
    sigma = np.linalg.norm(D, 2)
    assert norm_bound(A) >= sigma * (1 - 1e-12)
    lam = np.linalg.eigvalsh((D + D.conj().T) / 2)[-1]
    assert log_norm_bound(A) >= lam - 1e-12 * max(abs(lam), sigma)


def test_norm_bounds_of_zero_matrix():
    for n in (5, DENSE_CUTOFF + 1):
        Z = sp.csr_array((n, n))
        assert norm_bound(Z) == 0.0
        assert log_norm_bound(Z) == 0.0


def test_norm_bounds_exact_on_diffusion_stencil():
    # tridiag(1, -2, 1): row sums give ||A||_1 = ||A||_inf = 4 and Gershgorin 0
    n = 80
    A = diffusion_stencil(n)
    assert norm_bound(A) == 4.0
    assert log_norm_bound(A) == 0.0


@pytest.mark.parametrize("n", [3, 40, 200])
def test_two_norm_estimate_matches_svd(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    exact = np.linalg.norm(A, 2)
    approx = two_norm_estimate(as_csr(A))
    assert approx == pytest.approx(exact, rel=1e-6)


def test_two_norm_estimate_rectangular():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((120, 30))
    exact = np.linalg.norm(A, 2)
    assert two_norm_estimate(as_csr(A)) == pytest.approx(exact, rel=1e-6)


def test_two_norm_estimate_zero_matrix():
    assert two_norm_estimate(as_csr(np.zeros((5, 5)))) == 0.0


def test_two_norm_estimate_deterministic():
    rng = np.random.default_rng(9)
    A = as_csr(rng.standard_normal((150, 150)))
    assert two_norm_estimate(A) == two_norm_estimate(A)


@pytest.mark.parametrize("n", [4, 90])
def test_log_norm_matches_dense_eig(n):
    rng = np.random.default_rng(n + 17)
    A = rng.standard_normal((n, n))
    exact = np.linalg.eigvalsh((A + A.T) / 2).max()
    assert log_norm(as_csr(A)) == pytest.approx(exact, rel=1e-8, abs=1e-10)


def test_log_norm_negative_definite():
    # diffusion stencil: strictly dissipative, log norm must stay negative
    n = 30
    A = diffusion_stencil(n)
    assert log_norm(A) < 0.0


def test_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    A = sp.random_array((9, 9), density=0.3, random_state=rng)
    path = tmp_path / "A.mtx"
    save_matrix(path, A)
    B = load_matrix(path)
    np.testing.assert_allclose(B.toarray(), A.toarray(), atol=1e-14)


def test_vector_roundtrip(tmp_path):
    v = np.array([1.5, -2.0, 0.0, 3.25])
    path = tmp_path / "v.mtx"
    save_vector(path, v)
    w = load_vector(path)
    np.testing.assert_allclose(w, v)
    assert w.ndim == 1
