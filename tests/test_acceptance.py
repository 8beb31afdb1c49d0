"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each test prints exactly one line of the form

    [criterion N] PASS: <summary>
    [criterion N] FAIL: <summary>

before asserting, so a plain ``pytest -s tests/test_acceptance.py`` gives a
per-criterion scoreboard.  Tolerances are pinned in the assertions.
"""

import math
import time

import numpy as np
import pytest

import paramexpmv as px
from paramexpmv.arnoldi import run_arnoldi
from paramexpmv.linalg import two_norm_estimate
from paramexpmv.problems import gen_advdiff1, gen_advdiff2, gen_wave
from paramexpmv.reference import dense_coefficients, dense_solution, textbook_arnoldi
from paramexpmv.toeplitz import MatrixPolynomial, assemble_lm, structured_matvec


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def _random_poly(rng, n, N, scale=0.5, complex_=False):
    mats = []
    for _ in range(N + 1):
        A = rng.standard_normal((n, n))
        if complex_:
            A = A + 1j * rng.standard_normal((n, n))
        mats.append(A * scale)
    return MatrixPolynomial(mats)


def test_criterion_1_equivalence_with_textbook_arnoldi():
    # Square Hessenberg and the zero-padded basis are compared on L_m with
    # m = Np.  The trailing subdiagonal entry and the residual basis vector
    # extend one block beyond that truncation (the (p+1)-st basis vector
    # occupies 1 + pN blocks), so the full rectangular Hessenberg is compared
    # on the minimal truncation that contains it, m = Np + 1.
    rng = np.random.default_rng(1234)
    worst_sq = 0.0
    worst_full = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 9))
        N = int(rng.integers(1, 4))
        p = int(rng.integers(2, 7))
        complex_ = bool(trial % 2)
        P = _random_poly(rng, n, N, complex_=complex_)
        u0 = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_ else 0)
        d = run_arnoldi(P, u0, p)

        m = N * p
        L = assemble_lm(P, m)
        v0 = np.zeros(m * n, dtype=complex if complex_ else float)
        v0[:n] = u0
        ref = textbook_arnoldi(L, v0, p)
        worst_sq = max(worst_sq, np.abs(d.hessenberg - ref.hessenberg).max())
        Qpad = np.zeros((m * n, p), dtype=d.Q.dtype)
        rows = min(m * n, d.Q.shape[0])
        Qpad[:rows] = d.Q[:rows, :p]
        worst_sq = max(worst_sq, np.abs(Qpad - ref.Q[:, :p]).max())

        m1 = N * p + 1
        L1 = assemble_lm(P, m1)
        v1 = np.zeros(m1 * n, dtype=v0.dtype)
        v1[:n] = u0
        ref1 = textbook_arnoldi(L1, v1, p)
        worst_full = max(worst_full, np.abs(d.H - ref1.H).max())

    ok = worst_sq <= 1e-12 and worst_full <= 1e-12
    _report(1, ok, f"max |H_p,Q deviation| at m=Np: {worst_sq:.2e}; "
                   f"max rectangular-H deviation at m=Np+1: {worst_full:.2e} "
                   f"(tolerance 1e-12, 50 instances)")
    assert worst_sq <= 1e-12
    assert worst_full <= 1e-12


def test_criterion_2_structured_matvec_oracle():
    rng = np.random.default_rng(22)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 6))
        N = int(rng.integers(1, 5))
        j = int(rng.integers(1, 6))
        P = _random_poly(rng, n, N, scale=1.0)
        x = rng.standard_normal(j * n)
        y = structured_matvec(P, x)
        m = j + N
        xpad = np.zeros(m * n)
        xpad[:j * n] = x
        ref = assemble_lm(P, m) @ xpad
        worst = max(worst, np.abs(y - ref).max())
    ok = worst <= 1e-14
    _report(2, ok, f"max deviation {worst:.2e} over 100 instances (tolerance 1e-14)")
    assert worst <= 1e-14


def test_criterion_3_coefficient_correctness():
    # scalar shift: coefficients are t^l / l!
    P = MatrixPolynomial([np.zeros((1, 1)), np.ones((1, 1))])
    p = 20
    S = px.build(P, np.ones(1), p)
    worst_shift = 0.0
    for t in (0.1, 1.0):
        C = S.coefficients(t, p - 2)
        for ell in range(p - 2):
            worst_shift = max(
                worst_shift, abs(C[ell, 0] - t**ell / math.factorial(ell))
            )

    # random instances against the dense block-Toeplitz oracle
    rng = np.random.default_rng(33)
    worst_rand = 0.0
    for trial in range(5):
        P = _random_poly(rng, 5, 2, scale=0.4)
        u0 = rng.standard_normal(5)
        S = px.build(P, u0, 24)
        t = 0.7
        k = 11
        ref = dense_coefficients(P, u0, t, k)
        worst_rand = max(worst_rand, np.abs(S.coefficients(t, k) - ref).max())

    ok = worst_shift <= 1e-10 and worst_rand <= 1e-8
    _report(3, ok, f"scalar-shift max deviation {worst_shift:.2e} (tol 1e-10); "
                   f"random-instance max deviation {worst_rand:.2e} (tol 1e-8)")
    assert worst_shift <= 1e-10
    assert worst_rand <= 1e-8


def test_criterion_4_advdiff_reproduction():
    P, u0 = gen_advdiff1(200, 3e-4)
    t = 0.5
    nA0 = t * two_norm_estimate(P.coeffs[0])
    nA1 = two_norm_estimate(P.coeffs[1])
    norms_ok = abs(nA0 - 95.0) <= 0.05 * 95.0
    scaled = {eps: t * eps * nA1 for eps in (1e-3, 1.5e-2, 3e-2)}
    for eps, target in zip((1e-3, 1.5e-2, 3e-2), (0.4, 6.0, 12.0)):
        norms_ok = norms_ok and abs(scaled[eps] - target) <= 0.05 * target

    S = px.build(P, u0, 60)
    errs = {}
    reached = {}
    for eps in (1e-3, 1.5e-2, 3e-2):
        ref = dense_solution(P, u0, t, eps)
        seq = {}
        for p in range(2, 61):
            seq[p] = float(np.linalg.norm(S.with_p(p).evaluate(t, eps) - ref))
        errs[eps] = seq
        reached[eps] = min(seq.values())

    # superlinear decay: once the error is below 1e-4 (asymptotic regime) and
    # still above roundoff, five more iterations gain at least a factor 10
    superlinear_ok = True
    for eps, seq in errs.items():
        for p in range(2, 56):
            if seq[p] <= 1e-4 and seq[p + 5] >= 1e-12:
                superlinear_ok = superlinear_ok and (seq[p + 5] < seq[p] / 10.0)

    target_ok = any(
        p <= 60 and e <= 1e-10 for p, e in errs[1e-3].items()
    )
    ok = norms_ok and superlinear_ok and target_ok
    _report(4, ok, f"t||A0||={nA0:.2f} (target 95±5%), "
                   f"t*eps*||A1||={[round(v, 3) for v in scaled.values()]} "
                   f"(targets 0.4/6.0/12.0 ±5%); superlinear={superlinear_ok}; "
                   f"min error at eps=1e-3: {reached[1e-3]:.2e} (target <=1e-10 by p<=60)")
    assert norms_ok
    assert superlinear_ok
    assert target_ok


def test_criterion_5_second_example_and_scaling():
    P, u0 = gen_advdiff2(200, 3e-4, 2e2)
    t = 0.5
    nA2 = two_norm_estimate(P.coeffs[2])
    norms_ok = True
    vals = {}
    for eps, target in zip((1e-3, 1.5e-2, 3e-2), (5.0e-4, 0.1125, 0.45)):
        vals[eps] = t * eps**2 * nA2
        norms_ok = norms_ok and abs(vals[eps] - target) <= 0.05 * target

    gstar = px.heuristic_gamma(P)
    eps = 1.5e-2
    ref = dense_solution(P, u0, t, eps)
    iters = {}
    for gamma in (gstar / 4, gstar, 4 * gstar):
        S = px.build(P, u0, 80, gamma=gamma)
        iters[gamma] = next(
            (p for p in range(2, 81)
             if np.linalg.norm(S.with_p(p).evaluate(t, eps) - ref) <= 1e-8),
            81,
        )
    # fastest up to a one-iteration tie (the three choices are nearly
    # indistinguishable on this problem; only much smaller gamma degrades)
    fastest_ok = iters[gstar] <= min(iters.values()) + 1
    ok = norms_ok and fastest_ok
    _report(5, ok, f"t*eps^2*||A2||={[f'{v:.3g}' for v in vals.values()]} "
                   f"(targets 5e-4/0.1125/0.45 ±5%); iterations to 1e-8 "
                   f"(gamma*/4, gamma*, 4gamma*) = {list(iters.values())}")
    assert norms_ok
    assert fastest_ok


def test_criterion_6_bound_validity():
    rng = np.random.default_rng(42)
    violations = 0
    cases = 0
    worst_norm_slack = -np.inf
    worst_mu_slack = -np.inf
    for trial in range(20):
        n = int(rng.integers(2, 7))
        N = int(rng.integers(1, 3))
        t = float(rng.uniform(0.2, 1.0))
        mats = [rng.standard_normal((n, n)) for _ in range(N + 1)]
        alpha = sum(np.linalg.norm(a, 2) for a in mats)
        scale = 2.0 / (t * alpha) * rng.uniform(0.3, 1.0)
        P = MatrixPolynomial([a * scale for a in mats])
        u0 = rng.standard_normal(n)
        S = px.build(P, u0, 12, gamma=1.0)
        for eps in (0.0, 0.1, 0.25, 0.5):
            ref = dense_solution(P, u0, t, eps)
            for p in range(2, 13):
                Sp = S.with_p(p)
                err = float(np.linalg.norm(Sp.evaluate(t, eps) - ref))
                _, _, total = Sp.apriori(t, eps)
                cases += 1
                if total < err:
                    violations += 1
        B = px.BoundInputs.from_polynomial(P)
        A0 = P.coeffs[0].toarray()
        beta = B.mu0 + (B.alpha - np.linalg.norm(A0, 2))
        for m in (2, 5, 9):
            Lm = assemble_lm(P, m).toarray()
            worst_norm_slack = max(worst_norm_slack, np.linalg.norm(Lm, 2) - B.alpha)
            mu = np.linalg.eigvalsh((Lm + Lm.T) / 2).max()
            worst_mu_slack = max(worst_mu_slack, mu - beta)
    ok = (violations == 0 and worst_norm_slack <= 1e-8 and worst_mu_slack <= 1e-8)
    _report(6, ok, f"{cases} bound checks, {violations} violations; "
                   f"max ||L_m||-alpha = {worst_norm_slack:.2e}, "
                   f"max mu(L_m)-beta = {worst_mu_slack:.2e} (slack 1e-8)")
    assert violations == 0
    assert worst_norm_slack <= 1e-8
    assert worst_mu_slack <= 1e-8


def test_criterion_7_aposteriori_estimate_quality():
    # The total a posteriori estimate must track the true error within a
    # factor 10, in either direction, at every p whose error lies in the
    # window [1e-12, 1e-2]. This covers the pre-asymptotic hump regime
    # (t ||A0|| ~ 95) and the larger parameter values, where the series
    # truncation is a visible part of the error.
    P, u0 = gen_advdiff1(200, 3e-4)
    t = 0.5
    S = px.build(P, u0, 70)
    worst = {}
    for eps in (1e-3, 1.5e-2, 3e-2):
        ref = dense_solution(P, u0, t, eps)
        worst_ratio = 1.0
        for p in range(2, 71):
            Sp = S.with_p(p)
            err = float(np.linalg.norm(Sp.evaluate(t, eps) - ref))
            if not (1e-12 <= err <= 1e-2):
                continue
            est = Sp.error_report(t, eps).total_estimate
            ratio = est / err
            worst_ratio = max(worst_ratio, ratio, 1.0 / ratio if ratio > 0 else np.inf)
        worst[eps] = worst_ratio
    ok = all(r <= 10.0 for r in worst.values())
    _report(7, ok, "worst estimate/error ratio inside the error window "
                   f"[1e-12, 1e-2]: eps=1e-3: {worst[1e-3]:.1f}, "
                   f"eps=1.5e-2: {worst[1.5e-2]:.2e}, eps=3e-2: {worst[3e-2]:.2e} "
                   f"(required <= 10)")
    assert all(r <= 10.0 for r in worst.values())


def test_criterion_8_wave_equation_structural():
    P, u0 = gen_wave(15, 2.0)
    dim_ok = P.dim == 2 * 15**3 and u0.size == P.dim

    t = 1.0
    S = px.build(P, u0, 28)  # one build serves every gamma2 below
    refs = {g2: S.evaluate(t, g2) for g2 in (0.0, 1.0, 2.0)}
    distinct_ok = (np.linalg.norm(refs[0.0] - refs[2.0]) > 1e-3)

    superlinear_ok = True
    tracking_ok = True
    worst_ratio = 1.0
    for g2 in (0.0, 1.0, 2.0):
        seq = {}
        for p in range(4, 23):
            Sp = S.with_p(p)
            err = float(np.linalg.norm(Sp.evaluate(t, g2) - refs[g2]))
            seq[p] = err
            # self-referenced window: stay above the reference's own floor
            if 1e-11 <= err <= 1e-2:
                est = Sp.aposteriori_krylov(t, g2)
                ratio = est / err
                worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
                tracking_ok = tracking_ok and (0.1 <= ratio <= 10.0)
        for p in range(4, 18):
            if seq[p] <= 1e-4 and seq[p + 5] >= 1e-12:
                superlinear_ok = superlinear_ok and (seq[p + 5] < seq[p] / 10.0)

    ok = dim_ok and distinct_ok and superlinear_ok and tracking_ok
    _report(8, ok, f"dim={P.dim} (=2*15^3), single build reused for "
                   f"gamma2 in {{0,1,2}}; superlinear={superlinear_ok}; "
                   f"worst estimate/error ratio {worst_ratio:.2f} (required <= 10)")
    assert dim_ok
    assert distinct_ok
    assert superlinear_ok
    assert tracking_ok


def test_criterion_9_parameterization_reuse():
    P, u0 = gen_advdiff1(200, 3e-4)
    ts = np.linspace(0.05, 0.5, 10)
    epss = np.linspace(1e-4, 3e-2, 10)
    pairs = [(float(t), float(e)) for t in ts for e in epss]

    res = px.solve_adaptive(P, u0, pairs, tol=1e-8)
    assert res.converged
    S = res.solution

    start = time.perf_counter()
    vals = [S.evaluate(t, e) for t, e in pairs]
    t_eval = time.perf_counter() - start

    start = time.perf_counter()
    dense = [dense_solution(P, u0, t, e) for t, e in pairs]
    t_dense = time.perf_counter() - start

    speedup = t_dense / t_eval
    agree = True
    for (t, e), v, d in zip(pairs, vals, dense):
        err = float(np.linalg.norm(v - d))
        est = S.error_report(t, e).total_estimate
        # 1e-9 floor absorbs roundoff when the estimate underflows the
        # attainable accuracy
        agree = agree and (err <= est + 1e-9)

    ok = speedup >= 20.0 and agree
    _report(9, ok, f"100 evaluations in {t_eval*1e3:.1f} ms vs "
                   f"{t_dense*1e3:.1f} ms dense ({speedup:.0f}x, required >= 20x); "
                   f"all errors within reported estimate: {agree}")
    assert speedup >= 20.0
    assert agree
