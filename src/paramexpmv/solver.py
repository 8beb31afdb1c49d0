"""High-level API: build a parameterized solution, evaluate it anywhere in
(t, eps), and attach a priori bounds and a posteriori error estimates.

One Arnoldi run yields a compact object; every subsequent evaluation costs
only a small dense exponential per new t and one matrix-vector product over
the cached coefficient rows, never another large matvec.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arnoldi import InfiniteArnoldi, KrylovDecomposition, run_arnoldi
from .linalg import log_norm_bound, norm_bound
from .matfun import phi_columns
from .toeplitz import MatrixPolynomial, heuristic_gamma

#: Lanczos accuracy for two_norm_estimate/log_norm; read only by benchmarks/layers.py.
BOUND_INPUT_TOL = 1e-6

#: Arnoldi steps between estimate evaluations in the adaptive loop.
DEFAULT_CHECK_INTERVAL = 5

#: Iteration cap of the adaptive loop.
DEFAULT_P_MAX = 200

#: Per-t records a solution keeps; further t values are recomputed on each call.
MAX_CACHED_TIMES = 256


@dataclass(frozen=True)
class BoundInputs:
    """Norm data entering the a priori bounds; every field is an upper bound.

    alpha = sum of all coefficient norms, mu0 the logarithmic norm of the
    constant term, beta = mu0 plus the tail norms, a the largest tail norm.
    ``from_polynomial`` uses the O(nnz) bounds of ``linalg``; tighter values
    can be passed to the constructor.
    """

    alpha: float
    beta: float
    mu0: float
    a: float

    @classmethod
    def from_polynomial(cls, P: MatrixPolynomial) -> "BoundInputs":
        norms = [norm_bound(C) for C in P.coeffs]
        mu0 = log_norm_bound(P.coeffs[0])
        tail = norms[1:]
        return cls(
            alpha=float(sum(norms)),
            beta=float(mu0 + sum(tail)),
            mu0=float(mu0),
            a=float(max(tail, default=0.0)),
        )


@dataclass(frozen=True)
class ErrorReport:
    """Bounds and estimates for one (t, eps) target."""

    t: float
    eps: complex
    apriori_krylov: float
    apriori_truncation: float
    apriori_total: float
    aposteriori_krylov: float
    total_estimate: float


def _exp_or_inf(logval: float) -> float:
    if logval == -math.inf:
        return 0.0
    try:
        return math.exp(logval)
    except OverflowError:
        return math.inf


def _log_geometric_factor(ae: float, k: int) -> float:
    """log((1 - ae^(2k)) / (1 - ae^2)), finite for every ae >= 0."""
    # limit of the factor as ae -> 1 is k
    if abs(ae - 1.0) < 1e-12:
        return math.log(k)
    if ae < 1.0:
        return math.log1p(-ae ** (2 * k)) - math.log1p(-ae * ae)
    # ae^(2k) overflows here, so factor it out
    return 2 * k * math.log(ae) + math.log1p(-ae ** (-2 * k)) - math.log(ae * ae - 1.0)


def apriori_bounds(B: BoundInputs, t: float, eps, p: int, N: int,
                   u0_norm: float) -> tuple[float, float, float]:
    """A priori (krylov, truncation, total) error bounds after p steps.

    Evaluates the superlinear Krylov bound and the series-remainder bound
    (its sharper variant when N = 1) at k = 1 + N(p-1) retained
    coefficients. Computed in log space; overflow yields +inf.
    """
    if not (t > 0):
        raise ValueError("t must be positive")
    _check_eps(eps)
    if p < 2:
        raise ValueError("a priori bounds require p >= 2")
    ae = abs(eps)
    k = 1 + N * (p - 1)

    if t * B.alpha == 0.0:
        krylov = 0.0
    else:
        log_krylov = (
            math.log(2.0)
            + 0.5 * _log_geometric_factor(ae, k)
            + p * math.log(t * B.alpha)
            - math.lgamma(p + 1)
            + t * max(1.0, B.beta)
            + math.log(u0_norm)
        )
        krylov = _exp_or_inf(log_krylov)

    if ae == 0.0 or N == 0 or B.a == 0.0:
        truncation = 0.0
    elif N == 1:
        log_trunc = (
            t * (B.mu0 + ae * B.a)
            + k * math.log(ae * t * B.a)
            - math.lgamma(k + 1)
            + math.log(u0_norm)
        )
        truncation = _exp_or_inf(log_trunc)
    else:
        c2 = ae ** N * math.e * N * t * B.a
        log_c1 = (
            math.copysign(1.0, ae - 1.0) * math.log(ae) if ae != 1.0 else 0.0
        ) + t * (B.mu0 + math.e * N * B.a) + c2 - 1.0 + math.log(u0_norm)
        q = k // N
        truncation = 0.0
        for ell in range(N):
            truncation += _exp_or_inf(
                log_c1 + (q + ell) * math.log(c2) - math.lgamma(q + ell)
            )

    total = krylov + truncation
    return krylov, truncation, total


@dataclass
class _AtTime:
    """What a solution knows at one t, as read-only arrays: w = beta exp(tH_p)e_1,
    s1 = e_p^T phi_1(tH_p)e_1, and the k_max scaled coefficient rows once asked for."""

    w: np.ndarray
    s1: complex
    rows: np.ndarray | None = None


class ParameterizedSolution:
    """Evaluates approximate solutions and expansion coefficients at any (t, eps).

    Immutable after construction; evaluation touches only the small projected
    Hessenberg matrix and the stored basis. Everything that depends on t alone
    comes from one (p+1)-sized exponential per t, kept for later calls.
    """

    def __init__(self, decomposition: KrylovDecomposition, poly: MatrixPolynomial,
                 scaled_poly: MatrixPolynomial, gamma: float, bounds: BoundInputs):
        self.decomposition = decomposition
        self.poly = poly
        self.scaled_poly = scaled_poly
        self.gamma = float(gamma)
        self.bounds = bounds
        self.n = poly.dim
        self.degree = poly.degree
        self.u0_norm = decomposition.beta
        self.p = decomposition.p
        self.k_max = 1 + self.degree * (self.p - 1)
        self._at_time: dict[float, _AtTime] = {}

    def with_p(self, p: int) -> "ParameterizedSolution":
        """View of the solution as if only p Arnoldi steps had been run."""
        return ParameterizedSolution(
            self.decomposition.truncate(p), self.poly, self.scaled_poly,
            self.gamma, self.bounds,
        )

    def _at(self, t: float) -> _AtTime:
        rec = self._at_time.get(t)
        if rec is None:
            K = self.decomposition
            e1, phi1 = phi_columns(K.hessenberg, t)
            rec = _AtTime(e1 * K.beta, phi1[-1])
            rec.w.flags.writeable = False
            if len(self._at_time) < MAX_CACHED_TIMES:
                self._at_time[t] = rec
        return rec

    def _scaled_coefficients(self, t: float) -> np.ndarray:
        """All k_max coefficient blocks of the scaled problem, shape (k_max, n)."""
        rec = self._at(t)
        if rec.rows is None:
            rows = self.decomposition.combine(rec.w).reshape(-1, self.n)[:self.k_max]
            rows.flags.writeable = False
            rec.rows = rows
        return rec.rows

    def _check_k(self, k: int | None) -> int:
        k = self.k_max if k is None else k
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k must be in [1, {self.k_max}], got {k}")
        return k

    def coefficients(self, t: float, k: int | None = None) -> np.ndarray:
        """First k expansion coefficients at time t, shape (k, n)."""
        k = self._check_k(k)
        C = self._scaled_coefficients(t)[:k]
        if self.gamma != 1.0:
            # m finite factors: gamma**l alone overflows where scaled rows underflow
            m = max(1, math.ceil((k - 1) * abs(math.log10(self.gamma)) / 300))
            root = (self.gamma ** (np.arange(k) / m))[:, None]
            for _ in range(m):
                C = C * root
        return C

    def evaluate(self, t: float, eps, k: int | None = None) -> np.ndarray:
        """Approximate solution at (t, eps) from the first k coefficients.

        Costs one matrix-vector product over the cached (k, n) coefficient
        rows, plus coefficient synthesis on the first call at a new t.
        """
        k = self._check_k(k)
        _check_eps(eps)
        return _power_sum(self._scaled_coefficients(t)[:k], self.gamma * eps)

    def apriori(self, t: float, eps) -> tuple[float, float, float]:
        """(krylov, truncation, total) a priori bounds at this p."""
        return apriori_bounds(self.bounds, t, eps, self.p, self.degree, self.u0_norm)

    def aposteriori_krylov(self, t: float, eps) -> float:
        """A posteriori estimate of the error at (t, eps).

        The Arnoldi error of the parameter-free problem expands as
        beta h_{p+1,p} sum_{j>=1} t^j (e_p^T phi_j(tH_p) e_1) L^{j-1} q_{p+1}
        (Saad, SINUM 1992). The estimate keeps the leading term,
        t beta h_{p+1,p} (e_p^T phi_1(tH_p) e_1) q_{p+1}, and contracts all
        1+Np blocks of q_{p+1} against the parameter powers; the blocks
        past k_max are the leading part of the series tail, so truncation
        is covered too. Zero on lucky breakdown (the decomposition is then
        exact).
        """
        _check_eps(eps)
        K = self.decomposition
        if K.breakdown:
            return 0.0
        s1 = self._at(t).s1
        v = _horner(K.residual_vector.reshape(-1, self.n), self.gamma * eps)
        return float(abs(t * K.beta * K.residual_norm * s1) * np.linalg.norm(v))

    def error_report(self, t: float, eps) -> ErrorReport:
        """Full error report at (t, eps): a priori bounds plus the estimate.

        ``total_estimate`` is the a posteriori estimate alone; the rigorous
        but pessimistic a priori bounds stay in their own fields.
        """
        if self.p >= 2:
            kry, trunc, total = self.apriori(t, eps)
        else:
            kry = trunc = total = math.inf
        post = self.aposteriori_krylov(t, eps)
        return ErrorReport(
            t=t, eps=eps,
            apriori_krylov=kry, apriori_truncation=trunc, apriori_total=total,
            aposteriori_krylov=post, total_estimate=post,
        )


def _check_eps(eps) -> None:
    if not cmath.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")


def _power_sum(C: np.ndarray, x) -> np.ndarray:
    """sum_l x^l C[l] over the rows of C: one BLAS product per block of rows.

    Blocks hold b rows, with |x|^b finite (b = len(C) when |x| <= 1); Horner's
    rule in x^b joins the block sums. For real C and complex x the powers
    enter as a real (b, 2) matrix [Re, Im], so C is never cast to complex.
    """
    k = len(C)
    ax = abs(x)
    # |x|^b <= 1e300
    b = k if ax <= 1.0 else max(1, min(k, math.floor(300 / math.log10(ax))))
    powers = np.cumprod(np.r_[1.0, np.full(b, x)])  # x^0 .. x^b
    split = np.iscomplexobj(powers) and not np.iscomplexobj(C)
    if split:
        powers_ri = np.stack([powers.real, powers.imag], axis=1)
    u = None
    for start in range((k - 1) // b * b, -1, -b):
        block = C[start:start + b]
        if split:
            # (n, 2) C-ordered rows [Re, Im] read in place as complex
            s = (block.T @ powers_ri[:len(block)]).view(np.complex128)[:, 0]
        else:
            s = block.T @ powers[:len(block)]
        u = s if u is None else s + powers[b] * u
    return u


def _horner(C: np.ndarray, x) -> np.ndarray:
    """sum_l x^l C[l] over the rows of C by Horner's rule."""
    u = C[-1].astype(np.result_type(C.dtype, type(x)))
    for ell in range(len(C) - 2, -1, -1):
        u = C[ell] + x * u
    return u


def _prepare(P: MatrixPolynomial, gamma: float | None):
    if gamma is None:
        gamma = heuristic_gamma(P)
    scaled = P.scaled(gamma) if gamma != 1.0 else P
    bounds = BoundInputs.from_polynomial(P)
    return gamma, scaled, bounds


def build(P: MatrixPolynomial, u0, p: int,
          gamma: float | None = None) -> ParameterizedSolution:
    """Run p Arnoldi steps and wrap the result as a parameterized solution.

    The iteration runs on the coefficients scaled by gamma (None picks
    ``heuristic_gamma``, 1.0 runs unscaled); evaluation transparently maps
    back, so the approximated solution is the same function of (t, eps)
    for every gamma.
    """
    gamma, scaled, bounds = _prepare(P, gamma)
    K = run_arnoldi(scaled, u0, p)
    return ParameterizedSolution(K, P, scaled, gamma, bounds)


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of the adaptive run; `converged` is False if p_max was hit first."""

    solution: ParameterizedSolution
    reports: tuple[ErrorReport, ...]
    converged: bool

    @property
    def p(self) -> int:
        return self.solution.p


def solve_adaptive(P: MatrixPolynomial, u0, targets: Sequence[tuple[float, complex]],
                   tol: float, p_max: int = DEFAULT_P_MAX,
                   gamma: float | None = None) -> AdaptiveResult:
    """Iterate until the error estimate at every target drops below tol.

    Estimates are evaluated every `DEFAULT_CHECK_INTERVAL` steps, on
    breakdown and at p_max (each needs a small dense exponential per t).
    gamma is as in `build`. Returns a best-effort result with
    ``converged=False`` if p_max is reached first.
    """
    if not targets:
        raise ValueError("at least one (t, eps) target is required")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    for _, eps in targets:
        _check_eps(eps)
    gamma, scaled, bounds = _prepare(P, gamma)
    it = InfiniteArnoldi(scaled, u0)
    while True:
        it.step()
        at_cap = it.p >= p_max
        if it.breakdown or at_cap or it.p % DEFAULT_CHECK_INTERVAL == 0:
            S = ParameterizedSolution(it.decomposition(), P, scaled, gamma, bounds)
            reports = tuple(S.error_report(t, e) for t, e in targets)
            worst = max(r.total_estimate for r in reports)
            if worst <= tol:
                return AdaptiveResult(S, reports, True)
            if it.breakdown or at_cap:
                # breakdown: the decomposition is exact, no further progress possible
                return AdaptiveResult(S, reports, False)
