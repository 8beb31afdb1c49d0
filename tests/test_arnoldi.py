import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paramexpmv.arnoldi
from paramexpmv.arnoldi import (BREAKDOWN_TOL, CHUNK, AtTime, InfiniteArnoldi, StaircaseBasis,
                                run_arnoldi)
from paramexpmv.problems import gen_advdiff1
from paramexpmv.reference import textbook_arnoldi
from paramexpmv.solver import build
from paramexpmv.toeplitz import MatrixPolynomial, assemble_lm


def random_poly(rng, n, N, scale=0.5):
    return MatrixPolynomial([rng.standard_normal((n, n)) * scale for _ in range(N + 1)])


def test_basis_growth_pattern():
    rng = np.random.default_rng(0)
    n, N = 3, 2
    P = random_poly(rng, n, N)
    u0 = rng.standard_normal(n)
    d = run_arnoldi(P, u0, 5)
    Q = d.Q
    assert Q.shape == (n * (1 + N * 5), 6)
    # column ell is supported on its leading 1 + (ell-1)N blocks
    for ell in range(1, 7):
        rows = n * (1 + (ell - 1) * N)
        tail = Q[rows:, ell - 1]
        assert not tail.any()


def test_orthonormal_basis():
    rng = np.random.default_rng(1)
    P = random_poly(rng, 4, 1)
    u0 = rng.standard_normal(4)
    d = run_arnoldi(P, u0, 8)
    Q = d.Q
    np.testing.assert_allclose(Q.T.conj() @ Q, np.eye(9), atol=1e-13)


def test_hessenberg_shape_and_subdiagonal():
    rng = np.random.default_rng(2)
    P = random_poly(rng, 3, 2)
    u0 = rng.standard_normal(3)
    d = run_arnoldi(P, u0, 6)
    H = d.H
    assert H.shape == (7, 6)
    assert np.allclose(np.tril(H, -2), 0.0)
    assert all(H[j + 1, j].real >= 0 for j in range(6))


def test_beta_is_u0_norm():
    rng = np.random.default_rng(3)
    P = random_poly(rng, 3, 1)
    u0 = rng.standard_normal(3) * 3.7
    d = run_arnoldi(P, u0, 4)
    assert d.beta == pytest.approx(np.linalg.norm(u0), rel=1e-14)


def test_zero_start_vector_rejected():
    P = MatrixPolynomial([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        InfiniteArnoldi(P, np.zeros(2))


def test_arnoldi_relation_against_assembled_operator():
    # A Q_p = Q_{p+1} Hbar_p on the assembled truncation that contains all blocks
    rng = np.random.default_rng(4)
    n, N, p = 3, 2, 5
    P = random_poly(rng, n, N)
    u0 = rng.standard_normal(n)
    d = run_arnoldi(P, u0, p)
    m = 1 + N * p
    L = assemble_lm(P, m).toarray()
    rows = m * n
    Qfull = d.Q[:rows, :p + 1]
    H = d.H
    np.testing.assert_allclose(L @ Qfull[:, :p], Qfull @ H, atol=1e-12)


def test_truncate_shares_prefix():
    rng = np.random.default_rng(5)
    P = random_poly(rng, 3, 1)
    u0 = rng.standard_normal(3)
    d = run_arnoldi(P, u0, 9)
    d4 = d.truncate(4)
    assert d4.p == 4
    np.testing.assert_allclose(d4.hessenberg, d.hessenberg[:4, :4])
    np.testing.assert_allclose(d4.Q, d.Q[:d4.Q.shape[0], :5])


def test_truncate_validates_range():
    rng = np.random.default_rng(6)
    P = random_poly(rng, 2, 1)
    d = run_arnoldi(P, rng.standard_normal(2), 3)
    with pytest.raises(ValueError):
        d.truncate(0)
    with pytest.raises(ValueError):
        d.truncate(4)


def test_lucky_breakdown_scalar_nilpotent():
    # A0 = 0, A1 = 0 makes L identically zero: breakdown at the first step
    P = MatrixPolynomial([np.zeros((1, 1)), np.zeros((1, 1))])
    it = InfiniteArnoldi(P, np.ones(1))
    it.step()
    assert it.breakdown
    d = it.decomposition()
    assert d.breakdown
    assert d.H[d.p, d.p - 1] == 0.0 and d.at(1.0).t_factor == 0.0
    assert d.residual_vector is None


@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_decomposition_interface_shapes(N, complex_data):
    # what a solution reads of a decomposition: w(t) and the t-factor, the
    # k_max coefficient rows, the eps-factor of the 1+Np residual blocks and
    # k_max itself
    rng = np.random.default_rng(50 + N)
    n = 5
    mats = [0.5 * rng.standard_normal((n, n)) for _ in range(N + 1)]
    u0 = rng.standard_normal(n)
    if complex_data:
        mats = [A + 0.5j * rng.standard_normal((n, n)) for A in mats]
        u0 = u0 + 1j * rng.standard_normal(n)
    steady = run_arnoldi(MatrixPolynomial(mats), u0, 4)
    # a diagonal A0, a zero tail and a start vector in three eigenvectors:
    # lucky breakdown at step 3
    u0[3:] = 0.0
    diag = MatrixPolynomial([np.diag(np.arange(1.0, n + 1))] + [np.zeros((n, n))] * N)
    breaking = run_arnoldi(diag, u0, 7)
    assert not steady.breakdown and (breaking.breakdown, breaking.p) == (True, 3)
    for d in (steady, breaking):
        assert d.k_max == 1 + N * (d.p - 1)
        R = d.at(0.5)
        w, t_factor = R.w, R.t_factor
        assert w.shape == (d.p,) and not w.flags.writeable
        assert R._magnitudes.shape == (d.k_max,) and R._formed == 0
        rows = R.first(d.k_max)
        assert rows.shape == (d.k_max, n) and R._formed == d.k_max
        np.testing.assert_allclose(rows.ravel(), d.Q[:rows.size, :d.p] @ w, rtol=0, atol=1e-12)
        assert not rows.flags.writeable
        for x in (0.0, 0.3, -1.7, 0.4 - 0.9j, 25.0):
            if d.breakdown:
                assert d.eps_factor(x) == 0.0 and t_factor == 0.0
                continue
            # the norm of a dense contraction of q_{p+1}'s 1+Np blocks
            q = d.residual_vector.reshape(1 + N * d.p, n)
            dense = np.linalg.norm(q.T @ np.asarray(x) ** np.arange(len(q)))
            assert math.isclose(d.eps_factor(x), dense, rel_tol=1e-12)
            assert t_factor > 0.0


def test_breakdown_invariant_subspace():
    # start vector spanning an invariant subspace of a diagonal A0, zero tail
    A0 = np.diag([1.0, 2.0, 3.0])
    P = MatrixPolynomial([A0, np.zeros((3, 3))])
    u0 = np.array([1.0, 0.0, 0.0])
    d = run_arnoldi(P, u0, 5)
    assert d.breakdown
    assert d.p == 1


def test_incremental_equals_batch():
    rng = np.random.default_rng(7)
    P = random_poly(rng, 4, 2)
    u0 = rng.standard_normal(4)
    it = InfiniteArnoldi(P, u0)
    for _ in range(6):
        it.step()
    d_inc = it.decomposition()
    d_batch = run_arnoldi(P, u0, 6)
    np.testing.assert_allclose(d_inc.H, d_batch.H, atol=1e-14)
    np.testing.assert_allclose(d_inc.Q, d_batch.Q, atol=1e-14)


def test_matches_textbook_arnoldi_on_large_truncation():
    rng = np.random.default_rng(8)
    n, N, p = 4, 2, 5
    P = random_poly(rng, n, N)
    u0 = rng.standard_normal(n)
    d = run_arnoldi(P, u0, p)
    m = N * p + 1
    L = assemble_lm(P, m)
    v0 = np.zeros(m * n)
    v0[:n] = u0
    ref = textbook_arnoldi(L, v0, p)
    np.testing.assert_allclose(d.H, ref.H, atol=1e-12)
    np.testing.assert_allclose(d.Q, ref.Q, atol=1e-12)


def test_breakdown_tolerance_constant():
    assert BREAKDOWN_TOL == 1e-14


def test_complex_coefficients_supported():
    rng = np.random.default_rng(9)
    n = 3
    mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]
    P = MatrixPolynomial([0.4 * m for m in mats])
    u0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d = run_arnoldi(P, u0, 5)
    Q = d.Q
    np.testing.assert_allclose(Q.T.conj() @ Q, np.eye(6), atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), N=st.integers(1, 3), p=st.integers(1, 3 * CHUNK),
       complex_coeffs=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_arnoldi_relation_across_chunks(n, N, p, complex_coeffs, seed):
    # p reaches past two chunk boundaries of the basis storage
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((n, n)) for _ in range(N + 1)]
    if complex_coeffs:
        mats = [A + 1j * rng.standard_normal((n, n)) for A in mats]
    P = MatrixPolynomial([0.5 * A for A in mats])
    u0 = rng.standard_normal(n)
    d = run_arnoldi(P, u0, p)
    Q = d.Q
    assert Q.shape[1] == d.ncols
    L = assemble_lm(P, 1 + N * d.p).toarray()
    Qfull = np.zeros((L.shape[0], Q.shape[1]), dtype=Q.dtype)
    Qfull[:Q.shape[0]] = Q
    np.testing.assert_allclose(L @ Qfull[:, :d.p], Qfull @ d.H[:Q.shape[1]], atol=1e-12)
    np.testing.assert_allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-12)
    v0 = np.zeros(L.shape[0])
    v0[:n] = u0
    ref = textbook_arnoldi(L, v0, d.p)
    assert ref.breakdown == d.breakdown
    np.testing.assert_allclose(d.H, ref.H, rtol=0, atol=1e-12)
    np.testing.assert_allclose(Qfull, ref.Q, rtol=0, atol=1e-12)
    w = rng.standard_normal(d.p)
    c = AtTime(d.staircase, w, 0.0).first(d.k_max).ravel()
    np.testing.assert_allclose(c, Q[:c.size, :d.p] @ w, rtol=0, atol=1e-12)


def test_snapshot_unchanged_by_later_steps():
    rng = np.random.default_rng(10)
    P = random_poly(rng, 3, 2)
    it = InfiniteArnoldi(P, rng.standard_normal(3))
    for _ in range(CHUNK - 1):
        it.step()
    d = it.decomposition()
    # d.Q is cached, so the stored columns are read afresh from the storage
    basis, H, r = d.staircase.dense(d.ncols), d.H.copy(), d.residual_vector.copy()
    for _ in range(2 * CHUNK + 1):
        it.step()
    assert it.p == 3 * CHUNK
    np.testing.assert_array_equal(d.staircase.dense(d.ncols), basis)
    np.testing.assert_array_equal(d.H, H)
    np.testing.assert_array_equal(d.residual_vector, r)


def test_basis_storage_near_staircase_floor():
    rng = np.random.default_rng(11)
    n, N, p = 50, 1, 100
    d = run_arnoldi(random_poly(rng, n, N), rng.standard_normal(n), p)
    floor = sum(n * (1 + j * N) for j in range(p + 1)) * d.Q.dtype.itemsize
    assert d.staircase.nbytes <= 1.5 * floor


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n", [3, 7, 11])
@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_staircase_blocks_cover_only_the_prefixes(N, n, dtype, monkeypatch):
    # 7-row slabs cut every chunk of more than 7 rows, on a block boundary
    # (n = 7) and off it
    slab = 7
    monkeypatch.setattr(paramexpmv.arnoldi, "SLAB", slab)
    rng = np.random.default_rng(100 * N + n)
    basis = StaircaseBasis(n, N, dtype)
    for j in range(2 * CHUNK + 5):
        v = rng.standard_normal(basis.length(j)).astype(dtype)
        if dtype == np.complex128:
            v += 1j * rng.standard_normal(v.size)
        basis.append(v)
    itemsize = np.dtype(dtype).itemsize
    for m in (1, CHUNK - 3, CHUNK, CHUNK + 1, basis.count):
        height = basis.length(m - 1)
        covered = np.zeros((height, m), dtype=int)
        read = 0
        for c, r, B in basis._blocks(m):
            h, w = B.shape
            covered[r:r + h, c:c + w] += 1
            read += B.nbytes
            # every column of a block has a stored row in the block's slab
            assert r // slab * slab == r and h <= slab
            assert all(basis.length(j) > r for j in range(c, c + w))
        stored = np.arange(height)[:, None] < [basis.length(j) for j in range(m)]
        np.testing.assert_array_equal(covered[stored], 1)
        packed = sum(basis.length(j) for j in range(m)) * itemsize
        assert read <= packed + m * slab * itemsize

        Q = np.zeros((height, m), dtype=dtype)
        for j in range(m):
            Q[:basis.length(j), j] = basis.column(j)
        np.testing.assert_array_equal(basis.dense(m), Q)

        def close(x, ref):
            assert np.linalg.norm(x - ref) <= 1e-15 * np.linalg.norm(ref)

        Y = rng.standard_normal((2, height)) + 1j * rng.standard_normal((2, height))
        close(basis.project(Y, m), Y @ Q.conj())
        W = rng.standard_normal((2, m))
        y = Y.copy()
        basis.accumulate(y, W)
        close(y, Y + W @ Q.T)
        w = rng.standard_normal(m)
        y = np.zeros(height, dtype=dtype)
        basis.accumulate(y, w)
        close(y, Q @ w)


def test_overflowing_matvec_raises():
    # ||L q_1|| overflows to inf; it used to pass as a lucky breakdown
    P = MatrixPolynomial([np.array([[1e308]]), np.array([[1e308]])])
    it = InfiniteArnoldi(P, np.ones(1))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="step 1"):
        it.step()
    assert it.p == 0 and not it.breakdown


@pytest.mark.parametrize("exponent", [332, 465], ids=["1e100", "1e140"])
def test_huge_operator_scales_exactly(exponent):
    # scaling every coefficient by c = 2**exponent scales every rounding step
    # exactly, so H scales by c and Q is unchanged, bit for bit. The pending
    # vector has norm ~c and is scaled to unit norm before its product, or
    # the product's squared norm (~c**4) would overflow
    rng = np.random.default_rng(12)
    mats = [rng.standard_normal((5, 5)) for _ in range(3)]
    u0 = rng.standard_normal(5)
    c = 2.0 ** exponent
    d = run_arnoldi(MatrixPolynomial(mats), u0, 2 * CHUNK + 3)
    d_c = run_arnoldi(MatrixPolynomial([c * A for A in mats]), u0, 2 * CHUNK + 3)
    assert not d_c.breakdown and d_c.p == d.p
    assert np.abs(d_c.H).max() > 1e100
    np.testing.assert_array_equal(d_c.H, c * d.H)
    np.testing.assert_array_equal(d_c.Q, d.Q)


def test_orthonormal_basis_at_scale():
    # ||Q^H Q - I|| on an advdiff1 build of n = 2000, from the staircase kernel:
    # row i of the Gram matrix is Q_{i+1}^H q_i, with no dense copy of Q.
    # One Gram-Schmidt pass instead of two gives 5e-12 here
    d = build(*gen_advdiff1(2000, 3e-4), 60).decomposition
    m = d.ncols
    G = np.zeros((m, m))
    for i in range(m):
        G[i, :i + 1] = d.staircase.project(d.staircase.column(i)[None, :], i + 1)[0]
    G = np.tril(G) + np.tril(G, -1).T
    assert np.linalg.norm(G - np.eye(m), 2) <= 1e-14



@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), N=st.integers(0, 3), complex_coeffs=st.booleans(),
       complex_w=st.booleans(), p=st.integers(1, 2 * CHUNK + 3), keep=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_row_bounds_dominate_the_rows(n, N, complex_coeffs, complex_w, p, keep, seed):
    # M_l bounds every entry of row l of Q_p w, and the magnitudes a solution
    # keeps for it (sqrt(2) max(|Re|, |Im|) for complex rows), for full and
    # truncated decompositions
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((n, n)) for _ in range(N + 1)]
    if complex_coeffs:
        mats = [A + 1j * rng.standard_normal((n, n)) for A in mats]
    d = run_arnoldi(MatrixPolynomial([0.5 * A for A in mats]), rng.standard_normal(n), p)
    if d.p > 1:
        d = d.truncate(max(1, round(keep * d.p)))
    for w in (d.at(0.3).w, rng.standard_normal(d.p) * 10.0 ** rng.uniform(-5, 5, d.p)):
        if complex_w:
            w = w + 1j * rng.standard_normal(d.p)
        R = AtTime(d.staircase, w, 0.0)
        M = R._magnitudes.copy()
        rows = R.first(d.k_max)
        assert M.shape == (d.k_max,) and np.all(np.isfinite(M))
        slack = 1 + 1e-12
        assert np.all(np.abs(rows).max(axis=1) <= M * slack)
        assert np.all(paramexpmv.arnoldi._row_magnitudes(rows) <= M * slack)


@pytest.mark.parametrize("slab", [7, 11, 8192])
@pytest.mark.parametrize("N", [0, 1, 2])
def test_rows_formed_in_pieces_equal_one_pass(N, slab, monkeypatch):
    # any sequence of form calls writes each row once, with the bits of one
    # pass, and leaves the rows past the last slab it formed unwritten;
    # 11-row slabs are one row of n = 11, 7-row slabs cut the rows
    monkeypatch.setattr(paramexpmv.arnoldi, "SLAB", slab)
    rng = np.random.default_rng(7 + N)
    n = 11
    d = run_arnoldi(random_poly(rng, n, N), rng.standard_normal(n), 2 * CHUNK + 3)
    w = d.at(0.4).w
    ref = AtTime(d.staircase, w, 0.0).first(d.k_max)
    written = []
    blocks = StaircaseBasis._blocks

    def logged(self, m, start=0, stop=None):
        for c, r, B in blocks(self, m, start, stop):
            written.append((c, r))
            yield c, r, B

    monkeypatch.setattr(StaircaseBasis, "_blocks", logged)
    for ks in ([d.k_max], [1, 2, 3, d.k_max], [5, 4, 9, d.k_max - 1, d.k_max]):
        R = AtTime(d.staircase, w, 0.0)
        out = R._rows
        out[:] = np.nan
        formed = 0
        written.clear()
        for k in ks:
            k = min(k, d.k_max)
            R._form(k)
            new = R._formed
            assert new >= max(formed, k) and (slab % n or new == max(formed, k))
            formed = new
            np.testing.assert_array_equal(out[:formed], ref[:formed])
            assert np.isnan(out[formed + 1:]).all()
        assert formed == d.k_max and len(written) == len(set(written))
        np.testing.assert_array_equal(out, ref)


U = 2.0 ** -53


def staircase_of_decaying_columns(rng, n, N, dtype, count, rates):
    """A basis of `count` unit columns whose block l is scaled by 10^(-rate l)."""
    basis = StaircaseBasis(n, N, dtype)
    for j in range(count):
        k = 1 + j * N
        v = rng.standard_normal((k, n)).astype(dtype)
        if basis.dtype.kind == "c":
            v += 1j * rng.standard_normal((k, n))
        v *= 10.0 ** (-rates[j % len(rates)] * np.arange(k))[:, None]
        basis.append((v / np.linalg.norm(v)).ravel())
    return basis


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), N=st.integers(0, 3), complex_basis=st.booleans(),
       count=st.integers(1, 2 * CHUNK + 3), rates=st.lists(st.floats(0.0, 12.0), min_size=1,
                                                          max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_projection_lengths_cut_only_what_rounding_hides(n, N, complex_basis, count, rates,
                                                        seed):
    # past its projection length each column has 2-norm <= u, the lengths
    # never decrease nor pass the prefixes, and project stays within
    # u ||y|| plus the rounding bounds of both products of the dense Q^H y
    # (gamma_{L+2} |q|^T |y| each, complex inner products included)
    rng = np.random.default_rng(seed)
    dtype = np.complex128 if complex_basis else np.float64
    basis = staircase_of_decaying_columns(rng, n, N, dtype, count, rates)
    reach = basis._reach
    assert reach[0] >= n and all(a <= b for a, b in zip(reach, reach[1:]))
    for j in range(count):
        q = basis.column(j)
        assert reach[j] % n == 0 and reach[j] <= q.size
        assert np.linalg.norm(q[reach[j]:]) <= U * (1 + 1e-12)  # the norm's own rounding
    m = count
    Q = basis.dense(m)
    L = Q.shape[0]
    Y = rng.standard_normal((2, L)) + 1j * rng.standard_normal((2, L))
    G = basis.project(Y, m)
    gamma = (L + 2) * U / (1 - (L + 2) * U)
    bound = (U * np.linalg.norm(Y, axis=1)[:, None]
             + 2 * gamma * np.abs(Y) @ np.abs(Q))
    assert np.all(np.abs(G - Y @ Q.conj()) <= bound)


def test_only_project_reads_the_projection_lengths():
    # the rows of Q_m w past the projection lengths are tiny, but evaluation
    # scales block l by |gamma eps|^l: the update, the rows a solution forms
    # and the dense copy must keep them to working accuracy, entry by entry
    d = build(*gen_advdiff1(200, 3e-4), 60).decomposition
    basis, m = d.staircase, d.p
    assert basis._reach[m - 1] < basis.length(m - 1) // 2
    Q = basis.dense(m)
    for j in range(m):
        np.testing.assert_array_equal(Q[:basis.length(j), j], basis.column(j))
    w = d.at(0.5).w
    ref = Q @ w
    tail = slice(basis._reach[m - 1], None)
    assert np.all(ref[tail] != 0) and np.abs(ref[tail]).max() < 1e-20
    floor = 1e-13 * (np.abs(Q) @ np.abs(w))
    y = np.zeros_like(ref)
    basis.accumulate(y, w)
    rows = AtTime(basis, w, 0.0).first(d.k_max).ravel()
    for got in (y, rows):
        assert np.all(np.abs(got - ref) <= floor)
    # the update of the Arnoldi sweep is the same accumulate over two rows
    Y = np.zeros((2, ref.size))
    basis.accumulate(Y, np.stack([w, -w]))
    assert np.all(np.abs(Y - [ref, -ref]) <= floor)


def test_project_reads_at_most_half_the_staircase(monkeypatch):
    d = build(*gen_advdiff1(200, 3e-4), 60).decomposition
    basis, m = d.staircase, d.ncols
    read = []
    blocks = StaircaseBasis._blocks

    def counted(self, *args, **kwargs):
        for c, r, B in blocks(self, *args, **kwargs):
            read.append(B.nbytes)
            yield c, r, B

    monkeypatch.setattr(StaircaseBasis, "_blocks", counted)
    Y = np.ones((2, basis.length(m - 1)))
    G = basis.project(Y, m)
    staircase = sum(basis.length(j) for j in range(m)) * basis.dtype.itemsize
    assert 0 < sum(read) <= staircase / 2
    # the full projection differs from the cut one by at most u ||y|| a column
    Q = basis.dense(m)
    assert np.all(np.abs(G - Y @ Q) <= 1e-13 * np.linalg.norm(Y, axis=1)[:, None])
