import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paramexpmv.arnoldi
import paramexpmv.linalg
import paramexpmv.matfun
import paramexpmv.toeplitz
from paramexpmv import solver
from paramexpmv.cli import main
from paramexpmv.problems import gen_advdiff1, gen_advdiff2, generate
from paramexpmv.reference import dense_coefficients, dense_solution, textbook_arnoldi
from paramexpmv.solver import (
    BoundInputs,
    ParameterizedSolution,
    apriori_bounds,
    build,
    solve_adaptive,
)
from paramexpmv.toeplitz import MatrixPolynomial


def random_poly(rng, n, N, scale=0.5):
    return MatrixPolynomial([rng.standard_normal((n, n)) * scale for _ in range(N + 1)])


def test_bound_inputs_from_polynomial():
    A0 = np.diag([-1.0, -2.0])
    A1 = np.array([[0.0, 3.0], [0.0, 0.0]])
    B = BoundInputs.from_polynomial(MatrixPolynomial([A0, A1]))
    assert B.alpha == pytest.approx(2.0 + 3.0, rel=1e-6)
    assert B.mu0 == pytest.approx(-1.0, rel=1e-6)
    assert B.a == pytest.approx(3.0, rel=1e-6)
    assert B.beta == pytest.approx(-1.0 + 3.0, rel=1e-6)


def test_scalar_shift_coefficients():
    # A0 = 0, A1 = 1 gives coefficients t^l / l! exactly
    P = MatrixPolynomial([np.zeros((1, 1)), np.ones((1, 1))])
    S = build(P, np.ones(1), 12)
    for t in (0.1, 1.0):
        C = S.coefficients(t, 10)
        for ell in range(10):
            assert C[ell, 0] == pytest.approx(t**ell / math.factorial(ell), abs=1e-12)


@pytest.mark.parametrize("t, p", [(0.5, 110), (0.01, 200)])
def test_coefficients_finite_when_gamma_power_overflows(t, p):
    # gamma = 1e4: gamma**l overflows from l = 78 on, while the scaled rows
    # t^l/l! keep shrinking (at t = 0.01 to exactly 0, and gamma**(l/2)
    # overflows too); the unscaled coefficients stay finite.
    P = MatrixPolynomial([np.zeros((1, 1)), np.full((1, 1), 1e4)])
    S = build(P, np.ones(1), p)
    C = S.coefficients(t)
    assert S.gamma == 1e4 and C.shape == (p, 1)
    assert np.all(np.isfinite(C))
    # Only the scaled rows are accurate in the absolute sense, so map back.
    root = S.gamma ** (np.arange(p) / 4)
    scaled = C[:, 0] / root / root / root / root
    exact = [math.exp(ell * math.log(t) - math.lgamma(ell + 1)) for ell in range(p)]
    np.testing.assert_allclose(scaled, exact, rtol=0, atol=1e-12)


def test_build_and_solve_never_call_arpack(monkeypatch, capsys):
    # n = 200 is above DENSE_CUTOFF, where the Lanczos estimators use eigsh.
    def no_arpack(*args, **kwargs):
        raise AssertionError("eigsh called")

    monkeypatch.setattr(paramexpmv.linalg, "eigsh", no_arpack)
    P, u0 = gen_advdiff1(200, 3e-4)
    build(P, u0, 10)
    solve_adaptive(P, u0, [(0.5, 1.5e-2)], tol=1e-6, p_max=30)
    assert main(["solve", "--problem", "advdiff1", "--n", "200", "--a", "3e-4",
                 "--t", "0.5", "--eps", "1.5e-2", "--p", "10"]) == 0


def test_scalar_shift_evaluation_is_exponential():
    P = MatrixPolynomial([np.zeros((1, 1)), np.ones((1, 1))])
    S = build(P, np.ones(1), 20)
    # a finite t <= 0 is allowed too
    for t in (1.0, 0.0, -0.5):
        for eps in (0.3, 1.0, -0.7):
            u = S.evaluate(t, eps)
            assert u[0] == pytest.approx(np.exp(t * eps), rel=1e-10)


def test_solution_matches_dense_oracle():
    rng = np.random.default_rng(0)
    P = random_poly(rng, 6, 2, scale=0.4)
    u0 = rng.standard_normal(6)
    S = build(P, u0, 25)
    for t, eps in [(0.5, 0.1), (1.0, 0.3), (0.7, -0.2)]:
        ref = dense_solution(P, u0, t, eps)
        np.testing.assert_allclose(S.evaluate(t, eps), ref, atol=1e-10)


def test_coefficients_match_dense_oracle():
    rng = np.random.default_rng(1)
    P = random_poly(rng, 5, 2, scale=0.4)
    u0 = rng.standard_normal(5)
    S = build(P, u0, 22)
    t = 0.8
    k = 9
    ref = dense_coefficients(P, u0, t, k)
    np.testing.assert_allclose(S.coefficients(t, k), ref, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), N=st.integers(1, 3), complex_coeffs=st.booleans(),
       gamma=st.sampled_from([None, 1.0]), t=st.floats(0.1, 1.0),
       eps=st.complex_numbers(max_magnitude=0.5), seed=st.integers(0, 2**32 - 1))
def test_solution_and_coefficients_match_dense_oracles(n, N, complex_coeffs, gamma,
                                                       t, eps, seed):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((n, n)) for _ in range(N + 1)]
    if complex_coeffs:
        mats = [A + 1j * rng.standard_normal((n, n)) for A in mats]
    P = MatrixPolynomial([0.5 * A for A in mats])
    u0 = rng.standard_normal(n)
    S = build(P, u0, 30, gamma=gamma)
    tol = 1e-10 * np.linalg.norm(u0)
    np.testing.assert_allclose(S.evaluate(t, eps), dense_solution(P, u0, t, eps),
                               rtol=1e-10, atol=tol)
    np.testing.assert_allclose(S.coefficients(t, 8), dense_coefficients(P, u0, t, 8),
                               rtol=1e-10, atol=tol)


def test_cached_arrays_are_read_only():
    # without scaling coefficients(t) is a view of the rows evaluate reads
    P, u0 = gen_advdiff1(50, 3e-4)
    S = build(P, u0, 10, gamma=1.0)
    before = S.evaluate(0.5, 1e-2)
    C = S.coefficients(0.5)
    with pytest.raises(ValueError):
        C[:] = 0.0
    np.testing.assert_array_equal(S.evaluate(0.5, 1e-2), before)
    r = S.decomposition.residual_vector
    with pytest.raises(ValueError):
        r[:] = 0.0


def test_one_small_exponential_per_t(monkeypatch):
    calls = []
    expm = paramexpmv.matfun.expm
    monkeypatch.setattr(paramexpmv.matfun, "expm", lambda A: calls.append(A.shape) or expm(A))
    sums = []
    power_sum = solver._power_sum
    monkeypatch.setattr(solver, "_power_sum", lambda C, x: sums.append(x) or power_sum(C, x))
    rng = np.random.default_rng(12)
    S = build(random_poly(rng, 4, 2, scale=0.4), rng.standard_normal(4), 12)
    for eps in np.linspace(0.0, 0.3, 10):
        S.error_report(0.5, eps)
    S.evaluate(0.5, 0.1)
    S.coefficients(0.5, 3)
    assert calls == [(13, 13)]
    S.error_report(0.7, 0.1)
    S.with_p(S.p).evaluate(0.5, 0.1)
    assert len(calls) == 3
    # after evaluate at t, the estimate and the report each make one
    # contraction of q_{p+1} and no exponential
    S.evaluate(0.9, 0.2)
    calls.clear()
    sums.clear()
    S.aposteriori_krylov(0.9, 0.2)
    assert (calls, len(sums)) == ([], 1)
    S.error_report(0.9, 0.2)
    assert (calls, len(sums)) == ([], 2)


def test_per_t_records_stop_at_cap(monkeypatch):
    # past MAX_CACHED_TIMES distinct t a solution keeps no record; each call
    # at a further t recomputes it and answers as a fresh solution does
    monkeypatch.setattr(solver, "MAX_CACHED_TIMES", 2)
    P, u0 = gen_advdiff2(30, 3e-4, 2e2)
    S = build(P, u0, 12)
    for t in (0.1, 0.2, 0.4):
        S.evaluate(t, 1e-3)
    assert sorted(S._at_time) == [0.1, 0.2]
    fresh = build(P, u0, 12)
    for call in ("evaluate", "aposteriori_krylov"):
        for eps in (1e-3, 2e-3 + 1e-3j):
            ref = getattr(fresh, call)(0.4, eps)
            for _ in range(2):
                np.testing.assert_array_equal(getattr(S, call)(0.4, eps), ref)
    assert sorted(S._at_time) == [0.1, 0.2]


@pytest.mark.parametrize("order", ["t-major", "eps-major"])
def test_estimates_past_cap_one_exponential_per_t(order, monkeypatch):
    # past MAX_CACHED_TIMES the per-t record is not kept, yet one call of
    # _estimates still makes one exponential per distinct t
    monkeypatch.setattr(solver, "MAX_CACHED_TIMES", 2)
    P, u0 = gen_advdiff1(30, 1e-3)
    S = build(P, u0, 12)
    fresh = build(P, u0, 12)
    ts, epss = (0.1, 0.2, 0.4), (1e-3, 2e-3 + 1e-3j)
    if order == "t-major":
        targets = [(t, e) for t in ts for e in epss]
    else:
        targets = [(t, e) for e in epss for t in ts]
    ref = [fresh.aposteriori_krylov(t, e) for t, e in targets]
    calls = []
    expm = paramexpmv.matfun.expm
    monkeypatch.setattr(paramexpmv.matfun, "expm", lambda A: calls.append(A.shape) or expm(A))
    assert S._estimates(targets) == ref
    assert len(calls) == len(ts)


def test_solution_from_textbook_arnoldi():
    # the textbook oracle's degree-0 decomposition serves a solution through
    # the same interface as the structured iteration's
    P, u0 = gen_advdiff1(40, 1e-3)
    P0 = MatrixPolynomial(P.coeffs[:1])
    S = build(P0, u0, 12)
    T = ParameterizedSolution(textbook_arnoldi(P0.coeffs[0], u0, 12), P0, S.scaled_poly,
                              S.gamma, S.bounds)
    assert T.k_max == S.k_max == 1 and not T.decomposition.breakdown

    def close(x, ref):
        assert np.linalg.norm(np.subtract(x, ref)) <= 1e-12 * np.linalg.norm(ref)

    for t, eps in [(0.2, 0.0), (0.5, 1e-2), (1.0, 0.3 + 0.1j)]:
        u = T.evaluate(t, eps)
        close(u, S.evaluate(t, eps))
        close(T.coefficients(t), S.coefficients(t))
        got, ref = T.error_report(t, eps), S.error_report(t, eps)
        # the estimate is not a bound, but on this problem it exceeds the error
        assert 0.0 < np.linalg.norm(u - dense_solution(P0, u0, t, eps)) < got.aposteriori_krylov
        for field in dataclasses.fields(got):
            close(getattr(got, field.name), getattr(ref, field.name))


def test_complex_eps_evaluation():
    rng = np.random.default_rng(2)
    P = random_poly(rng, 4, 1, scale=0.4)
    u0 = rng.standard_normal(4)
    S = build(P, u0, 25)
    eps = 0.2 + 0.1j
    ref = dense_solution(P, u0, 0.9, eps)
    np.testing.assert_allclose(S.evaluate(0.9, eps), ref, atol=1e-9)


def horner(C, x):
    """sum_l x^l C[l] by Horner's rule, the reference for the evaluate kernel."""
    u = np.zeros(C.shape[1], np.result_type(C, x))
    for row in C[::-1]:
        u = row + x * u
    return u


def horner_problem(name):
    if name == "advdiff1":
        return build(*gen_advdiff1(30, 1e-3), 25)
    if name == "advdiff2":
        return build(*gen_advdiff2(40, 3e-4, 2e2), 30)
    rng = np.random.default_rng(21)
    mats = [0.4 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
            for _ in range(3)]
    return build(MatrixPolynomial(mats), rng.standard_normal(6), 15)


# x = gamma * eps, so x = 0.5 is the |gamma eps| <= 1 case and 50 the >> 1 case
HORNER_X = [0.0, 0.5, -0.3 + 0.6j, 50.0, 30.0 - 30.0j]


@pytest.mark.parametrize("complex_rows", [False, True])
@pytest.mark.parametrize("x", HORNER_X)
def test_evaluate_matches_horner(complex_rows, x):
    S = horner_problem("complex" if complex_rows else "advdiff1")
    t = 0.6
    rows = S._synthesized(t).rows
    assert np.iscomplexobj(rows) == complex_rows
    eps = x / S.gamma
    for k in (1, S.k_max // 2, S.k_max):
        ref = horner(rows[:k], S.gamma * eps)
        u = solver._power_sum(rows[:k], S.gamma * eps)
        assert np.linalg.norm(u - ref) <= 1e-14 * np.linalg.norm(ref)
    L = solver._rows_needed(S._synthesized(t).magnitudes, S.gamma * eps)
    got = S.evaluate(t, eps)
    np.testing.assert_array_equal(got, solver._power_sum(rows[:L], S.gamma * eps))
    assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


U = 2.0 ** -53


def assert_cut_within_floor(S, t, x):
    """evaluate(t, x / gamma) differs from the sum of all k_max rows by at most
    2u sum_l |x|^l m_l plus the rounding of the two sums: each is an inner
    product of k terms with powers from a running product, so within
    2k u sum_l |x|^l m_l (Higham 2002, section 3.1)."""
    rec = S._synthesized(t)
    rows, m = rec.rows, rec.magnitudes
    full = solver._power_sum(rows, x)
    with np.errstate(over="ignore"):
        floor = float(np.sum(abs(x) ** np.arange(S.k_max) * m))
    assert math.isfinite(floor)
    dropped = np.max(np.abs(full - S.evaluate(t, x / S.gamma)))
    assert dropped <= (2 + 4 * S.k_max) * U * floor


def magnitude_tail(m, x, L):
    """sum_{l>=L} |x|^l m_l and sum_l |x|^l m_l in extended precision."""
    terms = np.longdouble(abs(x)) ** np.arange(len(m)) * m.astype(np.longdouble)
    return terms[L:].sum(), terms.sum()


@pytest.mark.parametrize("name", ["advdiff1", "advdiff2", "wave"])
def test_evaluate_drops_only_a_tail_below_the_rounding_floor(name):
    if name == "wave":
        S = build(*generate("wave", {"points": 5, "gamma1": 2.0}), 20)
    else:
        S = horner_problem(name)
    for t in (0.1, 0.6):
        for x in (1e-3, -0.3, 0.2 + 0.7j, 1.0, 7.0, -40.0 + 25.0j):
            assert_cut_within_floor(S, t, x)
            m = S._synthesized(t).magnitudes
            L = solver._rows_needed(m, x)
            tail, total = magnitude_tail(m, x, L)
            # the cut keeps the fewest rows whose left-out terms are below u times all
            assert tail <= U * total * (1 + 1e-12)
            if L > 1:
                assert magnitude_tail(m, x, L - 1)[0] > U * total * (1 - 1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), N=st.integers(1, 3), complex_coeffs=st.booleans(),
       p=st.integers(2, 25), t=st.floats(0.05, 1.0),
       x=st.one_of(st.complex_numbers(max_magnitude=1.0),
                   st.floats(-1.0, 1.0),
                   st.complex_numbers(min_magnitude=10.0, max_magnitude=1e3),
                   st.floats(10.0, 1e3)),
       seed=st.integers(0, 2**32 - 1))
def test_evaluate_cut_within_floor_on_random_problems(n, N, complex_coeffs, p, t, x, seed):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((n, n)) for _ in range(N + 1)]
    if complex_coeffs:
        mats = [A + 1j * rng.standard_normal((n, n)) for A in mats]
    S = build(MatrixPolynomial([0.5 * A for A in mats]), rng.standard_normal(n), p)
    rec = S._synthesized(t)
    # m bounds each row's largest entry, and equals it for real rows
    largest = np.max(np.abs(rec.rows), axis=1)
    assert np.all(largest <= rec.magnitudes)
    if not complex_coeffs:
        np.testing.assert_array_equal(largest, rec.magnitudes)
    assert_cut_within_floor(S, t, x)


def test_evaluate_at_zero_eps_is_the_first_row():
    S = horner_problem("advdiff2")
    for t in (0.1, 0.6):
        np.testing.assert_array_equal(S.evaluate(t, 0.0), S._synthesized(t).rows[0])


def test_evaluate_sums_fewer_than_all_rows(monkeypatch):
    S = build(*gen_advdiff1(200, 3e-4), 60)
    seen = []
    power_sum = solver._power_sum
    monkeypatch.setattr(solver, "_power_sum", lambda C, x: seen.append(len(C)) or power_sum(C, x))
    u = S.evaluate(0.5, 1e-3)
    assert len(seen) == 1 and 1 <= seen[0] < S.k_max
    full = power_sum(S._synthesized(0.5).rows, S.gamma * 1e-3)
    assert np.linalg.norm(u - full) <= 1e-15 * np.linalg.norm(full)


def test_rows_needed_edge_cases():
    m = np.array([1.0, 0.5, 0.25, 0.0])
    assert solver._rows_needed(m, 0.0) == solver._rows_needed(m, 0j) == 1
    assert solver._rows_needed(np.zeros(4), 3.0) == 1
    for bad in (math.inf, math.nan):
        assert solver._rows_needed(np.array([1.0, bad, 1.0]), 1e-3) == 3
    assert solver._rows_needed(m, math.inf) == 4
    # a zero magnitude, a tiny and a huge x: defined, with no warning
    assert solver._rows_needed(m, 1e-300) == 1
    assert solver._rows_needed(m, 1e300) == 3
    assert solver._rows_needed(np.array([1.0, 1e-17, 1e-20]), 1.0) == 1
    assert solver._rows_needed(np.array([1.0, 1e-15, 1e-20]), 1.0) == 2


@pytest.mark.parametrize("complex_rows", [False, True])
def test_row_magnitudes_need_no_row_sized_temporary(complex_rows):
    rows = np.random.default_rng(3).standard_normal((40, 20000))
    if complex_rows:
        rows = rows * (1 - 2j)
    tracemalloc.start()
    try:
        m = solver._row_magnitudes(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes / 100
    exact = np.max(np.abs(rows), axis=1)
    assert np.all(exact <= m) and np.all(m <= math.sqrt(2.0) * exact * (1 + 1e-15))


def _power_sum_stacked(C, x):
    """The former `_power_sum`: powers built by concatenation, and the
    [Re, Im] matrix by stacking."""
    k = len(C)
    ax = abs(x)
    b = k if ax <= 1.0 else max(1, min(k, math.floor(300 / math.log10(ax))))
    powers = np.cumprod(np.r_[1.0, np.full(b, x)])
    split = np.iscomplexobj(powers) and not np.iscomplexobj(C)
    if split:
        powers_ri = np.stack([powers.real, powers.imag], axis=1)
    u = None
    for start in range((k - 1) // b * b, -1, -b):
        block = C[start:start + b]
        if split:
            s = (block.T @ powers_ri[:len(block)]).view(np.complex128)[:, 0]
        else:
            s = block.T @ powers[:len(block)]
        u = s if u is None else s + powers[b] * u
    return u


# |x| <= 1 and |x| > 1 in every precision; |x| = 3 and 2.8 split k = 700 rows
# into blocks (b < k)
POWER_SUM_X = (
    [cast(x) for x in (0.7, 1.7, 3.0, -3.0) for cast in (float, np.float32, np.float64)]
    + [cast(x) for x in (-0.4 + 0.5j, 1.5 - 0.8j, -2.0 + 2.0j)
       for cast in (complex, np.complex64, np.complex128)]
)


@pytest.mark.parametrize("complex_rows", [False, True])
@pytest.mark.parametrize("x", POWER_SUM_X, ids=lambda x: f"{type(x).__name__}({x})")
def test_power_sum_bit_identical_to_stacked_powers(x, complex_rows):
    # the powers are double precision whatever the precision of x: the
    # reference gets x at the same value as a 64-bit number
    rng = np.random.default_rng(3)
    k, n = (700, 3) if abs(x) > 2 else (12, 5)
    C = rng.standard_normal((k, n))
    if complex_rows:
        C = C + 1j * rng.standard_normal((k, n))
    C *= (1.0 / abs(x)) ** np.arange(k)[:, None]
    ref = _power_sum_stacked(C, np.complex128(x) if np.iscomplexobj(x) else np.float64(x))
    u = solver._power_sum(C, x)
    assert u.dtype == ref.dtype
    np.testing.assert_array_equal(u, ref)


def test_evaluate_at_single_precision_eps_is_finite():
    # t and eps enter the arithmetic and the per-t cache as Python numbers:
    # a float32 gamma * eps would be rounded, and its powers up to
    # |gamma eps|^(k-1) = 12^38 overflow the float32 range. Each call runs on
    # a fresh solution, so its per-t record is made from the t passed.
    S = build(*gen_advdiff1(200, 3e-4), 40)
    assert abs(S.gamma * 0.015) ** (S.k_max - 1) > float(np.finfo(np.float32).max)
    for t, eps in [(0.5, np.float32(0.015)), (0.5, np.complex64(0.015 + 0.002j)),
                   (np.float32(0.3), 0.015)]:
        value = (float(t), complex(eps) if np.iscomplexobj(eps) else float(eps))
        for call in ("evaluate", "aposteriori_krylov", "error_report"):
            got = getattr(S.with_p(S.p), call)(t, eps)
            ref = getattr(S.with_p(S.p), call)(*value)
            if call == "error_report":
                assert bits(got) == bits(ref)
            else:
                np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("name", ["advdiff1", "advdiff2", "complex"])
@pytest.mark.parametrize("x", HORNER_X)
def test_aposteriori_estimate_matches_horner(name, x):
    # the estimate contracts the 1+Np blocks of q_{p+1} with the evaluate kernel
    S = horner_problem(name)
    K = S.decomposition
    assert not K.breakdown
    t, eps = 0.6, x / S.gamma
    v = horner(K.residual_vector.reshape(-1, S.n), x)
    # the t-factor from the decomposition, not from the per-t record under test
    s1 = paramexpmv.matfun.phi_columns(K.hessenberg, t)[1][-1]
    ref = abs(t * K.beta * float(K.H[K.p, K.p - 1].real) * s1) * np.linalg.norm(v)
    assert ref > 0.0
    assert abs(S.aposteriori_krylov(t, eps) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("t", [0.01, 0.5])
def test_evaluate_finite_when_gamma_eps_power_overflows(t):
    # gamma * eps = 100 and 100**199 overflows, so the 200 rows are summed in
    # blocks; a single block turns inf * 0 (underflowed rows) into NaN.
    P = MatrixPolynomial([np.zeros((1, 1)), np.full((1, 1), 1e4)])
    S = build(P, np.ones(1), 200)
    assert S.gamma == 1e4 and S.k_max == 200
    u = S.evaluate(t, 0.01)
    assert np.all(np.isfinite(u))
    ref = horner(S._synthesized(t).rows, 100.0)
    assert np.linalg.norm(u - ref) <= 1e-14 * np.linalg.norm(ref)


def test_complex_eps_evaluate_does_not_copy_real_rows():
    P, u0 = gen_advdiff1(500, 1e-3)
    S = build(P, u0, 30)
    rows = S._synthesized(0.5).rows
    assert rows.dtype == np.float64
    tracemalloc.start()
    try:
        S.evaluate(0.5, 1e-2 + 1e-2j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes / 2


@pytest.mark.parametrize("eps", [math.nan, math.inf, complex(0.1, math.nan)])
def test_non_finite_eps_is_rejected(eps, monkeypatch):
    S = build(*gen_advdiff1(20, 1e-3), 10)
    for call in (S.evaluate, S.apriori, S.aposteriori_krylov, S.error_report):
        with pytest.raises(ValueError, match="eps must be finite"):
            call(0.5, eps)

    def no_arnoldi(*args, **kwargs):
        raise AssertionError("Arnoldi started")

    monkeypatch.setattr(solver, "InfiniteArnoldi", no_arnoldi)
    P, u0 = gen_advdiff1(20, 1e-3)
    with pytest.raises(ValueError, match="eps must be finite"):
        solve_adaptive(P, u0, [(0.5, 1e-2), (0.5, eps)], tol=1e-8)


def breakdown_solution():
    # diagonal invariant subspace: exact after one step
    P = MatrixPolynomial([np.diag([2.0, 3.0]), np.zeros((2, 2))])
    S = build(P, np.array([1.0, 0.0]), 5)
    assert S.decomposition.breakdown
    return S


@pytest.mark.parametrize("call, match", [
    # p = 1 skips the a priori bounds, breakdown skips the per-t record
    (lambda: build(*gen_advdiff1(20, 3e-4), 10).with_p(1).error_report(-1.0, 1e-2),
     "t must be positive"),
    (lambda: breakdown_solution().aposteriori_krylov(math.inf, 0.1), "t must be finite"),
    (lambda: breakdown_solution().error_report(-2.0, 0.1), "t must be positive"),
], ids=["p1-error-report", "breakdown-estimate", "breakdown-error-report"])
def test_estimate_checks_t_before_shortcuts(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_coefficients_rejects_non_integer_k():
    S = build(*gen_advdiff1(20, 3e-4), 10)
    with pytest.raises(ValueError, match="k must be an integer, got 2.5"):
        S.coefficients(0.5, 2.5)
    np.testing.assert_array_equal(S.coefficients(0.5, np.int64(3)), S.coefficients(0.5, 3))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_t_is_rejected(t):
    # t = inf used to reach phi_columns and warn about inf * 0 before failing
    S = build(*gen_advdiff1(20, 1e-3), 10)
    calls = [lambda: S.evaluate(t, 1e-2), lambda: S.coefficients(t),
             lambda: S.aposteriori_krylov(t, 1e-2), lambda: S.error_report(t, 1e-2),
             lambda: apriori_bounds(S.bounds, t, 1e-2, 5, 1, 1.0)]
    for call in calls:
        with pytest.raises(ValueError, match="t must be finite"):
            call()


def test_k_max_and_degree_bookkeeping():
    rng = np.random.default_rng(3)
    P = random_poly(rng, 3, 2)
    S = build(P, rng.standard_normal(3), 6)
    assert S.p == 6
    assert S.k_max == 1 + 2 * 5


def test_with_p_truncation_consistency():
    rng = np.random.default_rng(4)
    P = random_poly(rng, 4, 1, scale=0.4)
    u0 = rng.standard_normal(4)
    S = build(P, u0, 15)
    S8 = S.with_p(8)
    S8_direct = build(P, u0, 8)
    np.testing.assert_allclose(
        S8.evaluate(0.6, 0.2), S8_direct.evaluate(0.6, 0.2), atol=1e-12
    )


def test_scaling_invariance_of_solution():
    rng = np.random.default_rng(5)
    P = random_poly(rng, 4, 2, scale=0.4)
    u0 = rng.standard_normal(4)
    S1 = build(P, u0, 20)
    S2 = build(P, u0, 20, gamma=1.0)
    ref = dense_solution(P, u0, 0.7, 0.15)
    np.testing.assert_allclose(S1.evaluate(0.7, 0.15), ref, atol=1e-9)
    np.testing.assert_allclose(S2.evaluate(0.7, 0.15), ref, atol=1e-9)


@pytest.mark.parametrize("gamma, a1_scale", [(1.0, 1.0), (None, 1.0), (None, 8.0)],
                         ids=["gamma1", "default-gamma", "default-gamma-A1x8"])
def test_apriori_bounds_dominate_error(gamma, a1_scale):
    # A1 scaled by 8 moves the default gamma from 0.9-1.7 to 7.3-13.4 on these draws
    rng = np.random.default_rng(6)
    for trial in range(5):
        n = int(rng.integers(2, 6))
        N = int(rng.integers(1, 3))
        P = random_poly(rng, n, N, scale=0.3)
        A0, A1, *rest = P.coeffs
        P = MatrixPolynomial([A0, a1_scale * A1, *rest])
        u0 = rng.standard_normal(n)
        S = build(P, u0, 10, gamma=gamma)
        if a1_scale > 1.0:
            assert 5.0 < S.gamma < 20.0
        t = 0.6
        for eps in (0.1, 0.4):
            ref = dense_solution(P, u0, t, eps)
            for p in range(2, 11):
                Sp = S.with_p(p)
                err = np.linalg.norm(Sp.evaluate(t, eps) - ref)
                _, _, total = Sp.apriori(t, eps)
                assert total + 1e-14 >= err


def test_apriori_requires_valid_inputs():
    B = BoundInputs(alpha=1.0, beta=0.5, mu0=0.0, a=0.5)
    with pytest.raises(ValueError):
        apriori_bounds(B, -1.0, 0.1, 5, 1, 1.0)
    with pytest.raises(ValueError):
        apriori_bounds(B, 1.0, 0.1, 1, 1, 1.0)


@pytest.mark.parametrize("ae", [0.0, 0.3, 0.999, 1.0, 1.5, 2.0])
def test_log_geometric_factor_matches_closed_form(ae):
    def factor(ae, k):
        if abs(ae - 1.0) < 1e-12:
            return float(k)
        return (1.0 - ae ** (2 * k)) / (1.0 - ae * ae)

    for k in (1, 2, 5, 50, 159):
        assert math.isclose(solver._log_geometric_factor(ae, k), math.log(factor(ae, k)),
                            rel_tol=4e-15, abs_tol=1e-15)


def test_apriori_bounds_finite_or_inf_beyond_unit_eps():
    # ae^(2k) overflows a float for |eps| > 1; the bounds must say +inf, not raise
    kry, _, _ = apriori_bounds(BoundInputs(1, 0.5, 0, 1), 0.5, 10.0, 160, 1, 1.0)
    assert 0.0 < kry < math.inf
    P, u0 = gen_advdiff1(30, 1e-3)
    with np.errstate(over="ignore"):
        rep = build(P, u0, 160).error_report(0.5, 10.0)
        assert rep.apriori_total == math.inf
        res = solve_adaptive(P, u0, [(0.5, 10.0)], tol=1e-300)
    assert not res.converged and res.p == 200


@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_apriori_bounds_defined_at_extreme_eps(N):
    # |eps|^N, |eps|^2, c2 = |eps|^N e N t a and |eps| t a under- or overflow
    # a float at these values; the bounds stay in log space and never raise
    B = BoundInputs(1, 0.5, 0, 1)
    last = 0.0
    for ae in (5e-324, 1e-300, 1e-170, 0.5, 5.0, 1e154, 1e160, 1e300):
        for eps in (ae, -ae, 1j * ae):
            bounds = apriori_bounds(B, 0.5, eps, 5, N, 1.0)
            assert all(b >= 0.0 for b in bounds), (ae, bounds)
        assert bounds[0] >= last
        last = bounds[0]


def test_apriori_bounds_through_the_api_at_extreme_eps():
    P, u0 = gen_advdiff2(30, 3e-4, 2e2)
    S = build(P, u0, 10)
    assert S.error_report(0.5, 1e-200).apriori_truncation == 0.0
    with np.errstate(over="ignore"):
        assert S.error_report(0.5, 1e200).apriori_total == math.inf
    res = solve_adaptive(P, u0, [(0.5, 1e-200)], tol=1e-8, p_max=10)
    assert res.reports[0].apriori_total > 0.0
    # degree 0 at an |eps| whose square overflows: the bound must not read 0.0
    rng = np.random.default_rng(0)
    A, v = rng.standard_normal((8, 8)), rng.standard_normal(8)
    S = build(MatrixPolynomial([A]), v, 3)
    err = np.linalg.norm(S.evaluate(0.5, 1e160) - dense_solution(MatrixPolynomial([A]), v, 0.5, 0.0))
    assert S.error_report(0.5, 1e160).apriori_total >= err > 0.3


def test_overflowing_estimate_reads_inf():
    # the contraction of q_{p+1} overflows at |gamma eps| = 1e200: the estimate
    # is +inf without a warning, also where the t-factor has underflowed to 0
    # and the product 0 * inf would be NaN
    P, u0 = gen_advdiff2(30, 3e-4, 2e2)
    S = build(P, u0, 10)
    assert S._at(1e-200).t_factor == 0.0
    for t, eps in [(0.5, 1e200), (0.5, 1e200j), (1e-200, 1e200)]:
        report = S.error_report(t, eps)
        assert report.aposteriori_krylov == report.total_estimate == math.inf
        assert report.apriori_total == math.inf


def test_overflowing_exponential_raises():
    # at t = -1000 the small exponential overflows: evaluate and coefficients
    # raise, naming t (and eps), where they returned all-NaN arrays
    P, u0 = gen_advdiff1(30, 1e-3)
    S = build(P, u0, 12)
    with pytest.raises(FloatingPointError, match=r"t=-1000, eps=0\.001"):
        S.evaluate(-1000, 1e-3)
    with pytest.raises(FloatingPointError, match="t=-1000"):
        S.coefficients(-1000)
    assert np.all(np.isfinite(S.evaluate(-10, 1e-3)))
    assert np.all(np.isfinite(S.coefficients(-10)))


@pytest.mark.parametrize("t", [1e308, -1e308])
def test_overflowing_t_h_gives_documented_outcomes(t):
    # t H_p itself overflows for this finite t, which the exponential refuses
    # as non-finite input: evaluate and coefficients raise FloatingPointError
    # naming t (and eps), the estimate reads +inf, and a negative t is refused
    # where an estimate is asked for
    P, u0 = gen_advdiff1(50, 3e-4)
    S = build(P, u0, 10)
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(t * S.decomposition.hessenberg))
    with pytest.raises(FloatingPointError, match=re.escape(f"t={t}, eps=0.01")):
        S.evaluate(t, 1e-2)
    with pytest.raises(FloatingPointError, match=re.escape(f"t={t}")):
        S.coefficients(t)
    def adaptive(t, eps):
        return solve_adaptive(P, u0, [(t, eps)], tol=1e-8, p_max=10)

    if t < 0:
        for call in (S.aposteriori_krylov, S.error_report, adaptive):
            with pytest.raises(ValueError, match="t must be positive"):
                call(t, 1e-2)
        return
    assert S.aposteriori_krylov(t, 1e-2) == S.error_report(t, 1e-2).total_estimate == math.inf
    res = adaptive(t, 1e-2)
    assert not res.converged and res.reports[0].total_estimate == math.inf


@pytest.mark.parametrize("eps", [1e300j, 1e150 + 1e150j, 1e100])
def test_overflowing_power_sum_raises(eps):
    # the power sum overflows (to NaN for the complex eps, to inf for the
    # real one); the estimate and the a priori bound still read +inf
    P, u0 = gen_advdiff1(30, 1e-3)
    S = build(P, u0, 12)
    with pytest.raises(FloatingPointError, match=re.escape(f"t=0.5, eps={eps}")):
        S.evaluate(0.5, eps)
    report = S.error_report(0.5, eps)
    assert report.total_estimate == report.apriori_total == math.inf


def test_overflowing_gamma_scaling_raises():
    # gamma = 1e4 and t = 1e4: the scaled rows (1e4)^l/l! are finite, the
    # coefficients (1e8)^l/l! overflow from l = 46 on
    P = MatrixPolynomial([np.zeros((1, 1)), np.full((1, 1), 1e4)])
    S = build(P, np.ones(1), 60)
    assert S.gamma == 1e4
    assert np.all(np.isfinite(S._synthesized(1e4).rows))
    assert np.all(np.isfinite(S.coefficients(1e4, 46)))
    with pytest.raises(FloatingPointError, match="t=10000"):
        S.coefficients(1e4)


def test_truncation_bound_zero_for_zero_eps():
    B = BoundInputs(alpha=1.0, beta=0.5, mu0=0.0, a=0.5)
    kry, trunc, total = apriori_bounds(B, 1.0, 0.0, 5, 1, 1.0)
    assert trunc == 0.0
    assert total == kry


def test_aposteriori_estimate_tracks_error():
    rng = np.random.default_rng(7)
    P = random_poly(rng, 5, 1, scale=0.8)
    u0 = rng.standard_normal(5)
    S = build(P, u0, 14, gamma=1.0)
    t, eps = 1.0, 0.3
    ref = dense_solution(P, u0, t, eps)
    for p in range(4, 12):
        Sp = S.with_p(p)
        err = np.linalg.norm(Sp.evaluate(t, eps) - ref)
        est = Sp.aposteriori_krylov(t, eps)
        if 1e-13 <= err <= 1e-2:
            assert est / err < 50.0
            assert est / err > 0.02


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("scaled", [False, True])
def test_aposteriori_estimate_scales_with_t(N, scaled):
    # each term of the Krylov error expansion carries a factor t^j, so a
    # missing factor t shows up as est/err ~ 1/t away from t = 1
    rng = np.random.default_rng(17 + N)
    P = random_poly(rng, 5, N, scale=0.6)
    u0 = rng.standard_normal(5)
    S = build(P, u0, 14, gamma=None if scaled else 1.0)
    eps = 0.3
    checked = 0
    for t in (0.1, 0.5, 2.0):
        ref = dense_solution(P, u0, t, eps)
        for p in range(2, 14):
            Sp = S.with_p(p)
            err = np.linalg.norm(Sp.evaluate(t, eps) - ref)
            if 1e-13 <= err <= 1e-2:
                ratio = Sp.aposteriori_krylov(t, eps) / err
                assert 0.5 <= ratio <= 2.0, (t, p, ratio)
                checked += 1
    assert checked >= 6


def test_error_report_fields():
    rng = np.random.default_rng(8)
    for N in (1, 2):
        P = random_poly(rng, 3, N, scale=0.4)
        S = build(P, rng.standard_normal(3), 8)
        rep = S.error_report(0.5, 0.2)
        assert rep.t == 0.5
        assert rep.eps == 0.2
        assert rep.apriori_total >= rep.apriori_krylov
        # the estimate and the rigorous bound are kept apart
        assert rep.total_estimate == rep.aposteriori_krylov
        assert rep.aposteriori_krylov == S.aposteriori_krylov(0.5, 0.2)
        assert (rep.apriori_krylov, rep.apriori_truncation,
                rep.apriori_total) == S.apriori(0.5, 0.2)


def test_breakdown_estimate_is_zero():
    S = breakdown_solution()
    assert S.aposteriori_krylov(1.0, 0.1) == 0.0
    assert S.evaluate(1.0, 0.5)[0] == pytest.approx(np.exp(2.0), rel=1e-12)


def test_solve_adaptive_converges():
    rng = np.random.default_rng(9)
    P = random_poly(rng, 5, 2, scale=0.4)
    u0 = rng.standard_normal(5)
    targets = [(0.5, 0.1), (1.0, 0.2)]
    res = solve_adaptive(P, u0, targets, tol=1e-9)
    assert res.converged
    assert len(res.reports) == 2
    assert all(r.total_estimate <= 1e-9 for r in res.reports)
    for t, eps in targets:
        ref = dense_solution(P, u0, t, eps)
        err = np.linalg.norm(res.solution.evaluate(t, eps) - ref)
        assert err <= 1e-7


def test_solve_adaptive_respects_p_max():
    rng = np.random.default_rng(10)
    P = random_poly(rng, 6, 1, scale=2.0)
    u0 = rng.standard_normal(6)
    res = solve_adaptive(P, u0, [(1.0, 0.3)], tol=1e-30, p_max=6)
    assert not res.converged
    assert res.solution.p <= 6


def test_solve_adaptive_validates_arguments(monkeypatch):
    def no_step(self):
        raise AssertionError("Arnoldi step taken")

    monkeypatch.setattr(paramexpmv.arnoldi.InfiniteArnoldi, "step", no_step)
    P = MatrixPolynomial([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        solve_adaptive(P, np.ones(2), [(1.0, 0.1)], tol=-1.0)
    for p_max in (0, -3):
        with pytest.raises(ValueError, match="p_max"):
            solve_adaptive(P, np.ones(2), [(1.0, 0.1)], tol=1e-8, p_max=p_max)
    for t in (-1.0, 0.0, math.inf):
        with pytest.raises(ValueError, match="t must be"):
            solve_adaptive(P, np.ones(2), [(1.0, 0.1), (t, 0.1)], tol=1e-8)


def test_solve_adaptive_accepts_one_shot_iterable():
    # the input checks must not use up a one-shot iterable of targets
    rng = np.random.default_rng(13)
    P = random_poly(rng, 5, 1, scale=0.4)
    u0 = rng.standard_normal(5)
    got = solve_adaptive(P, u0, ((t, 0.1) for t in (0.5, 1.0)), tol=1e-8)
    ref = solve_adaptive(P, u0, [(0.5, 0.1), (1.0, 0.1)], tol=1e-8)
    assert got.converged and len(got.reports) == 2
    assert (got.p, got.reports) == (ref.p, ref.reports)


def bits(report):
    """Every ErrorReport field with its type, exact to the last bit."""
    return tuple(repr(v) for v in dataclasses.astuple(report))


def adaptive_by_target(P, u0, targets, tol, p_max):
    """`solve_adaptive` as a loop over truncations of one build, with a full
    `error_report` per target at every check: the reference for the batched
    checks of the library. Returns p, converged and the reports of every
    check, the returned ones last."""
    S = build(P, u0, p_max)
    history = []
    for p in range(1, S.p + 1):
        if p % solver.DEFAULT_CHECK_INTERVAL and p < S.p:
            continue
        Sp = S.with_p(p)
        history.append([Sp.error_report(t, e) for t, e in targets])
        converged = max(r.total_estimate for r in history[-1]) <= tol
        if converged or p == S.p:
            return p, converged, history


ADAPTIVE_CASES = {
    # name: (N, eps values, tol, p_max); every t and eps repeats in the target grid
    "N1-real": (1, (0.1, -0.2, 0.35), 1e-9, 200),
    "N2-complex": (2, (0.1, 0.1 + 0j, -0.2 + 0.1j, 0.35j), 1e-9, 200),
    "N1-complex-cap": (1, (0.1 + 0j, 0.1, 0.3 - 0.2j), 1e-30, 12),
    "N2-real-cap": (2, (0.0, 0.1, -0.3), 1e-30, 7),
    # from a seeded search: at p = 10 the worst target of the first check is
    # below tol and another is above, so the loop picks a new worst target
    "N2-retarget": (2, (0.02 + 0.44j, -0.38, -0.55), 1e-7, 200),
}


@pytest.mark.parametrize("case", [*ADAPTIVE_CASES, "breakdown"])
def test_batched_checks_match_per_target_loop(case):
    if case == "breakdown":
        P = MatrixPolynomial([np.diag([2.0, 3.0]), np.zeros((2, 2))])
        u0 = np.array([1.0, 0.0])
        targets = [(t, e) for t in (0.5, 1.0, 0.5) for e in (0.1, 0.1 + 0j, 0.1)]
        tol, p_max = 1e-8, 5
    else:
        N, epss, tol, p_max = ADAPTIVE_CASES[case]
        rng = np.random.default_rng(14 + N)
        P = random_poly(rng, 5, N, scale=0.5)
        u0 = rng.standard_normal(5)
        targets = [(t, e) for t in (0.3, 1.0, 0.3, 0.7) for e in epss]
    p, converged, history = adaptive_by_target(P, u0, targets, tol, p_max)
    res = solve_adaptive(P, u0, targets, tol=tol, p_max=p_max)
    assert (res.p, res.converged) == (p, converged)
    assert [bits(r) for r in res.reports] == [bits(r) for r in history[-1]]
    if case == "N2-retarget":
        estimates = [[r.total_estimate for r in reports] for reports in history]
        worst = estimates[0].index(max(estimates[0]))
        assert any(e[worst] <= tol < max(e) for e in estimates[1:-1])
    if case == "breakdown":
        assert res.solution.decomposition.breakdown and p == 1
    elif "cap" in case:
        assert not converged and p == p_max
    else:
        assert converged and p > solver.DEFAULT_CHECK_INTERVAL


def test_adaptive_check_work(monkeypatch):
    # the first and the last check: one small exponential per distinct t and
    # one contraction of q_{p+1} per distinct eps; every check between probes
    # the worst target of the first: one of each. The last probe passes, and
    # its contraction is made again by the full batch of the last check.
    # A priori bounds only for the returned reports
    counts = {"expm": 0, "apriori_bounds": 0, "_power_sum": 0}

    def counting(module, name):
        f = getattr(module, name)

        def wrapped(*args):
            counts[name] += 1
            return f(*args)
        monkeypatch.setattr(module, name, wrapped)

    counting(paramexpmv.matfun, "expm")
    counting(solver, "apriori_bounds")
    counting(solver, "_power_sum")
    rng = np.random.default_rng(15)
    P = random_poly(rng, 5, 2, scale=0.4)
    ts, epss = (0.2, 0.5, 1.0), (0.0, 0.05, 0.1 + 0.1j, 0.2)
    targets = [(t, e) for t in ts for e in epss]
    res = solve_adaptive(P, rng.standard_normal(5), targets, tol=1e-10)
    assert res.converged and not res.solution.decomposition.breakdown
    checks = -(-res.p // solver.DEFAULT_CHECK_INTERVAL)
    assert checks >= 3
    assert counts == {"expm": 2 * len(ts) + checks - 2, "apriori_bounds": len(targets),
                      "_power_sum": 2 * len(epss) + checks - 1}


@pytest.mark.parametrize("value", [7.5, 7.0, "7"], ids=["7.5", "7.0", "str"])
@pytest.mark.parametrize("call", [
    lambda P, u0, v: paramexpmv.arnoldi.run_arnoldi(P, u0, v),
    lambda P, u0, v: build(P, u0, v),
    lambda P, u0, v: solve_adaptive(P, u0, [(1.0, 0.1)], tol=1e-8, p_max=v),
], ids=["run_arnoldi-p", "build-p", "solve_adaptive-p_max"])
def test_step_counts_must_be_integers(call, value, monkeypatch):
    # p = 2.5 used to run 3 steps, and p_max = 7.5 to stop at p = 8
    def no_step(self):
        raise AssertionError("Arnoldi step taken")

    monkeypatch.setattr(paramexpmv.arnoldi.InfiniteArnoldi, "step", no_step)
    P = MatrixPolynomial([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match=r"p(_max)? must be an integer"):
        call(P, np.ones(2), value)


def test_with_p_rejects_non_integer_p():
    S = build(*gen_advdiff1(20, 3e-4), 10)
    with pytest.raises(ValueError, match="p must be an integer, got 2.5"):
        S.with_p(2.5)
    assert S.with_p(np.int64(4)).p == 4


@pytest.mark.parametrize("entry", [
    lambda P, u0: build(P, u0, 10),
    lambda P, u0: solve_adaptive(P, u0, [(0.1, 1e-3)], tol=1e-8, p_max=20),
], ids=["build", "solve_adaptive"])
def test_norm_bounds_computed_once_per_polynomial(entry, monkeypatch):
    # gamma and the bound inputs share one norm_bound per coefficient
    calls = []
    norm_bound = paramexpmv.linalg.norm_bound

    def counting(A):
        calls.append(A)
        return norm_bound(A)

    for module in (paramexpmv.toeplitz, solver):
        monkeypatch.setattr(module, "norm_bound", counting, raising=False)
    P, u0 = gen_advdiff2(30, 3e-4, 2e2)
    entry(P, u0)
    assert len(calls) == P.degree + 1


def test_gamma_override():
    rng = np.random.default_rng(11)
    P = random_poly(rng, 4, 1, scale=0.5)
    u0 = rng.standard_normal(4)
    S = build(P, u0, 18, gamma=2.0)
    assert S.gamma == 2.0
    ref = dense_solution(P, u0, 0.8, 0.2)
    np.testing.assert_allclose(S.evaluate(0.8, 0.2), ref, atol=1e-9)
    # the heuristic has no tail norms to balance for degree 0
    assert build(MatrixPolynomial([P.coeffs[0]]), u0, 5).gamma == 1.0


def test_build_rejects_nan_coefficients():
    A0 = np.eye(3)
    A0[1, 2] = np.nan
    P = MatrixPolynomial([A0, np.eye(3)])
    with pytest.raises(FloatingPointError, match="step 1"):
        build(P, np.ones(3), 4, gamma=1.0)
