import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paramexpmv.linalg
import paramexpmv.matfun
from paramexpmv import solver
from paramexpmv.cli import main
from paramexpmv.problems import gen_advdiff1
from paramexpmv.reference import dense_coefficients, dense_solution
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
    for eps in (0.3, 1.0, -0.7):
        u = S.evaluate(1.0, eps)
        assert u[0] == pytest.approx(np.exp(eps), rel=1e-10)


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


@pytest.mark.parametrize("complex_rows", [False, True])
@pytest.mark.parametrize("x", [0.0, 0.5, -0.3 + 0.6j, 50.0, 30.0 - 30.0j])
def test_evaluate_matches_horner(complex_rows, x):
    # x = gamma * eps, so x = 0.5 is the |gamma eps| <= 1 case and 50 the >> 1 case
    if complex_rows:
        rng = np.random.default_rng(21)
        mats = [0.4 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
                for _ in range(3)]
        S = build(MatrixPolynomial(mats), rng.standard_normal(6), 15)
    else:
        S = build(*gen_advdiff1(30, 1e-3), 25)
    t = 0.6
    rows = S._scaled_coefficients(t)
    assert np.iscomplexobj(rows) == complex_rows
    eps = x / S.gamma
    for k in (1, S.k_max // 2, S.k_max):
        ref = horner(rows[:k], S.gamma * eps)
        u = S.evaluate(t, eps, k)
        assert np.linalg.norm(u - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("t", [0.01, 0.5])
def test_evaluate_finite_when_gamma_eps_power_overflows(t):
    # gamma * eps = 100 and 100**199 overflows, so the 200 rows are summed in
    # blocks; a single block turns inf * 0 (underflowed rows) into NaN.
    P = MatrixPolynomial([np.zeros((1, 1)), np.full((1, 1), 1e4)])
    S = build(P, np.ones(1), 200)
    assert S.gamma == 1e4 and S.k_max == 200
    u = S.evaluate(t, 0.01)
    assert np.all(np.isfinite(u))
    ref = horner(S._scaled_coefficients(t), 100.0)
    assert np.linalg.norm(u - ref) <= 1e-14 * np.linalg.norm(ref)


def test_complex_eps_evaluate_does_not_copy_real_rows():
    P, u0 = gen_advdiff1(500, 1e-3)
    S = build(P, u0, 30)
    rows = S._scaled_coefficients(0.5)
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


def test_apriori_bounds_dominate_error():
    rng = np.random.default_rng(6)
    for trial in range(5):
        n = int(rng.integers(2, 6))
        N = int(rng.integers(1, 3))
        P = random_poly(rng, n, N, scale=0.3)
        u0 = rng.standard_normal(n)
        S = build(P, u0, 10, gamma=1.0)
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
    # diagonal invariant subspace: exact after one step
    P = MatrixPolynomial([np.diag([2.0, 3.0]), np.zeros((2, 2))])
    u0 = np.array([1.0, 0.0])
    S = build(P, u0, 5)
    assert S.decomposition.breakdown
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


def test_solve_adaptive_validates_arguments():
    P = MatrixPolynomial([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        solve_adaptive(P, np.ones(2), [(1.0, 0.1)], tol=-1.0)


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
