"""High-level API: build a parameterized solution, evaluate it anywhere in
(t, eps), and attach a priori bounds and a posteriori error estimates.

One Arnoldi run yields a compact object; every subsequent evaluation costs
only a small dense exponential per new t and one matrix-vector product over
the leading cached coefficient rows (`evaluate`), never another large matvec.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .arnoldi import InfiniteArnoldi, KrylovDecomposition, run_arnoldi
from .linalg import _as_int, log_norm_bound
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
        norms = P._norm_bounds
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
    """Bounds and estimates for one (t, eps) target. t and eps are the Python
    float and float or complex the arithmetic used, not the caller's objects."""

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
    # ae^2 and ae^(2k) may overflow here, so factor them out
    return 2 * (k - 1) * math.log(ae) + math.log1p(-ae ** (-2 * k)) - math.log1p(-ae ** -2)


def apriori_bounds(B: BoundInputs, t: float, eps, p: int, N: int,
                   u0_norm: float) -> tuple[float, float, float]:
    """A priori (krylov, truncation, total) error bounds after p steps.

    Evaluates the superlinear Krylov bound and the series-remainder bound
    (its sharper variant when N = 1) at k = 1 + N(p-1) retained
    coefficients. Every intermediate that can leave the float range is taken
    in log space, so the bounds are defined for every finite eps and every N:
    overflow yields +inf, never an exception.
    """
    t, eps = _check_positive_t(t), _check_eps(eps)
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

    if ae == 0.0 or N == 0 or t * B.a == 0.0:
        truncation = 0.0
    elif N == 1:
        log_trunc = (
            t * (B.mu0 + ae * B.a)
            + k * (math.log(ae) + math.log(t * B.a))
            - math.lgamma(k + 1)
            + math.log(u0_norm)
        )
        truncation = _exp_or_inf(log_trunc)
    else:
        # c2 = |eps|^N e N t a; the product is kept where |eps|^N is finite,
        # because exp(log c2) loses digits in proportion to c2
        log_c2 = N * math.log(ae) + 1.0 + math.log(N * t * B.a)
        c2 = ae ** N * math.e * N * t * B.a if N * math.log(ae) < 709.0 else _exp_or_inf(log_c2)
        log_c1 = (abs(math.log(ae)) + t * (B.mu0 + math.e * N * B.a) + c2 - 1.0
                  + math.log(u0_norm))
        q = k // N
        truncation = 0.0
        for ell in range(N):
            truncation += _exp_or_inf(log_c1 + (q + ell) * log_c2 - math.lgamma(q + ell))

    total = krylov + truncation
    return krylov, truncation, total


@dataclass
class _AtTime:
    """What a solution knows at one t: w and the t-factor of the decomposition's
    `at`, and, once asked for, the k_max scaled coefficient rows and an upper
    bound on each row's largest magnitude (all arrays read-only)."""

    w: np.ndarray
    t_factor: float
    rows: np.ndarray | None = None
    magnitudes: np.ndarray | None = None


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
        self.p = decomposition.p
        self.k_max = decomposition.k_max
        self._at_time: dict[float, _AtTime] = {}

    def with_p(self, p: int) -> "ParameterizedSolution":
        """View of the solution as if only p Arnoldi steps had been run."""
        return ParameterizedSolution(self.decomposition.truncate(p), self.poly,
                                     self.scaled_poly, self.gamma, self.bounds)

    def _at(self, t: float) -> _AtTime:
        t = _check_t(t)
        rec = self._at_time.get(t)
        if rec is None:
            rec = _AtTime(*self.decomposition.at(t))
            if len(self._at_time) < MAX_CACHED_TIMES:
                self._at_time[t] = rec
        return rec

    def _synthesized(self, t: float) -> _AtTime:
        """The per-t record with its coefficient rows and their magnitudes."""
        rec = self._at(t)
        if rec.rows is None:
            if not np.all(np.isfinite(rec.w)):
                raise FloatingPointError("exp(tH_p) overflows")
            rows = self.decomposition.rows(rec.w)
            rows.flags.writeable = False
            rec.magnitudes = _row_magnitudes(rows)
            rec.magnitudes.flags.writeable = False
            rec.rows = rows
        return rec

    def coefficients(self, t: float, k: int | None = None) -> np.ndarray:
        """First k expansion coefficients at time t, shape (k, n); k defaults to
        k_max. Overflow raises FloatingPointError."""
        k = self.k_max if k is None else _as_int("k", k)
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k must be in [1, {self.k_max}], got {k}")
        with _raise_on_overflow(t):
            C = self._synthesized(t).rows[:k]
            if self.gamma != 1.0:
                # m finite factors: gamma**l alone overflows where scaled rows underflow
                m = max(1, math.ceil((k - 1) * abs(math.log10(self.gamma)) / 300))
                root = (self.gamma ** (np.arange(k) / m))[:, None]
                for _ in range(m):
                    C = C * root
        return C

    def evaluate(self, t: float, eps) -> np.ndarray:
        """Approximate solution at (t, eps) from the leading L of the k_max
        coefficients.

        With x = gamma eps and m_l the largest magnitude in row l, L >= 1 is
        the fewest leading rows whose left-out terms sum to at most
        u sum_l |x|^l m_l (u the float64 unit roundoff), a bound on the
        rounding error of the full sum; so in exact arithmetic the answer is
        within that of the sum of all k_max terms (`_rows_needed`). Costs one
        matrix-vector product over the cached (L, n) coefficient rows, plus
        coefficient synthesis on the first call at a new t. Overflow raises
        FloatingPointError.
        """
        eps = _check_eps(eps)
        with _raise_on_overflow(t, eps):
            rec = self._synthesized(t)
            x = self.gamma * eps
            return _power_sum(rec.rows[:_rows_needed(rec.magnitudes, x)], x)

    def apriori(self, t: float, eps) -> tuple[float, float, float]:
        """(krylov, truncation, total) a priori bounds at this p."""
        return apriori_bounds(self.bounds, t, eps, self.p, self.degree, self.decomposition.beta)

    def aposteriori_krylov(self, t: float, eps) -> float:
        """A posteriori estimate of the error at (t, eps): the leading term of
        the Krylov error expansion, computed by `_estimates`. t must be finite
        and positive. Zero on lucky breakdown."""
        return self._estimates([(_check_positive_t(t), _check_eps(eps))])[0]

    def _estimates(self, targets: Sequence[tuple[float, complex]]) -> list[float]:
        """The a posteriori estimate at each target, in order; the only code
        that computes it. Targets must have passed `_check_positive_t` and
        `_check_eps`.

        The Arnoldi error of the parameter-free problem expands as
        beta h_{p+1,p} sum_{j>=1} t^j (e_p^T phi_j(tH_p) e_1) L^{j-1} q_{p+1}
        (Saad, SINUM 1992). The estimate keeps the leading term: the t-factor
        of the per-t record times the eps-factor ||sum_l (gamma eps)^l q_{p+1,l}||,
        which contracts all 1+Np blocks of q_{p+1} with the kernel of `evaluate`.
        The blocks past k_max are the leading part of the series tail, so
        truncation is covered too. Each distinct eps is contracted once per
        call, keyed with its type: a real and a complex eps of equal value take
        different kernel paths, which may differ in the last bit. An estimate
        beyond the float range reads +inf, never NaN. Zero on lucky breakdown
        (the decomposition is then exact).
        """
        q = self.decomposition.residual_blocks
        if q is None:
            return [0.0] * len(targets)
        # one record fetch per distinct t: past MAX_CACHED_TIMES, _at recomputes
        t_part = {t: self._at(t).t_factor for t in dict.fromkeys(t for t, _ in targets)}
        eps_part, estimates = {}, []
        for t, eps in targets:
            key = (type(eps), eps)
            if key not in eps_part:
                with np.errstate(over="ignore", invalid="ignore"):
                    eps_part[key] = float(np.linalg.norm(_power_sum(q, self.gamma * eps)))
            # NaN from an overflowed contraction, or 0 * inf, reads +inf
            est = t_part[t] * eps_part[key]
            estimates.append(math.inf if math.isnan(est) else est)
        return estimates

    def error_report(self, t: float, eps) -> ErrorReport:
        """Full error report at (t, eps): a priori bounds plus the estimate.

        ``total_estimate`` is the a posteriori estimate alone; the rigorous
        but pessimistic a priori bounds stay in their own fields.
        """
        t, eps = _check_positive_t(t), _check_eps(eps)
        return self._report(t, eps, self._estimates([(t, eps)])[0])

    def _report(self, t: float, eps, estimate: float) -> ErrorReport:
        """The report at (t, eps) around its a posteriori estimate."""
        if self.p >= 2:
            kry, trunc, total = self.apriori(t, eps)
        else:
            kry = trunc = total = math.inf
        return ErrorReport(
            t=t, eps=eps,
            apriori_krylov=kry, apriori_truncation=trunc, apriori_total=total,
            aposteriori_krylov=estimate, total_estimate=estimate,
        )


# The checks return Python numbers, so products and cache keys depend on the
# value alone (gamma * eps is single precision for an np.float32 eps).
def _check_t(t) -> float:
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return float(t)


def _check_positive_t(t) -> float:
    t = _check_t(t)
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    return t


def _check_eps(eps) -> float | complex:
    if not cmath.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    return complex(eps) if np.iscomplexobj(eps) else float(eps)


@contextmanager
def _raise_on_overflow(t, eps=None):
    """Make float overflow and invalid operations in the block raise
    FloatingPointError naming t (and eps), not warn and return inf or NaN."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        at = f"t={t}" if eps is None else f"t={t}, eps={eps}"
        raise FloatingPointError(f"{exc} at {at}") from None


def _row_magnitudes(rows: np.ndarray) -> np.ndarray:
    """Upper bound on max_i |rows[l, i]| for each row l, with no temporary
    the size of the rows: sqrt(2) max(|Re|, |Im|) for complex rows, +inf
    past the float range."""
    if np.iscomplexobj(rows):
        with np.errstate(over="ignore"):
            return math.sqrt(2.0) * _row_magnitudes(rows.view(rows.real.dtype))
    return np.maximum(rows.max(axis=1), -rows.min(axis=1))


def _rows_needed(magnitudes: np.ndarray, x) -> int:
    """Fewest leading rows L >= 1 with sum_{l>=L} |x|^l m_l <= u sum_l |x|^l m_l,
    for m = magnitudes and u = 2^-53, the float64 unit roundoff.

    The terms are compared in log space, so every finite x is covered. x = 0
    and all-zero magnitudes give 1; a non-finite magnitude (or x) gives all
    rows, so an overflow is met as it would be in the full sum.
    """
    k, ax = len(magnitudes), abs(x)
    if ax == 0.0:
        return 1
    if not math.isfinite(ax):
        return k
    with np.errstate(divide="ignore"):
        logs = np.log(magnitudes) + math.log(ax) * np.arange(k)
    top = logs.max()
    if not math.isfinite(top):
        return 1 if top == -math.inf else k
    # tails[L] = sum_{l>=L} of the terms over the largest; it does not increase
    tails = np.cumsum(np.exp(logs - top)[::-1])[::-1]
    return 1 + int(np.count_nonzero(tails[1:] > 2.0 ** -53 * tails[0]))


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
    # x^0 .. x^b in double precision: b is chosen for the float64 range
    powers = np.empty(b + 1, dtype=np.result_type(np.float64, x))
    powers[0] = 1.0
    powers[1:] = x
    np.cumprod(powers, out=powers)
    split = np.iscomplexobj(powers) and not np.iscomplexobj(C)
    if split:
        # (b+1, 2) C-ordered [Re, Im] rows, a view of the complex powers
        powers_ri = powers.view(np.float64).reshape(-1, 2)
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


def solve_adaptive(P: MatrixPolynomial, u0, targets: Iterable[tuple[float, complex]],
                   tol: float, p_max: int = DEFAULT_P_MAX,
                   gamma: float | None = None) -> AdaptiveResult:
    """Iterate until the error estimate at every target drops below tol.

    Estimates are evaluated every `DEFAULT_CHECK_INTERVAL` steps, on
    breakdown and at p_max. The first and the last check estimate every
    target. A check in between probes the target that was worst at the last
    full check and estimates every target only if that one is at most tol;
    a full check that does not return picks the worst target again. A full
    check makes one small dense exponential per distinct t and one
    contraction of q_{p+1} per distinct eps; a probe makes one of each. A
    priori bounds are computed only for the returned reports. targets may
    be any iterable of (t, eps) pairs. gamma is as in `build`. Returns a
    best-effort result with ``converged=False`` if p_max is reached first.
    """
    targets = tuple((_check_positive_t(t), _check_eps(eps)) for t, eps in targets)
    if not targets:
        raise ValueError("at least one (t, eps) target is required")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    p_max = _as_int("p_max", p_max)
    if p_max < 1:
        raise ValueError(f"p_max must be at least 1, got {p_max}")
    gamma, scaled, bounds = _prepare(P, gamma)
    it = InfiniteArnoldi(scaled, u0)
    worst = None  # index of the largest estimate at the last full check
    while True:
        it.step()
        at_cap = it.p >= p_max
        if not (it.breakdown or at_cap or it.p % DEFAULT_CHECK_INTERVAL == 0):
            continue
        S = ParameterizedSolution(it.decomposition(), P, scaled, gamma, bounds)
        # breakdown: the decomposition is exact, no further progress possible
        final = it.breakdown or at_cap
        if not final and worst is not None and S._estimates([targets[worst]])[0] > tol:
            continue
        estimates = S._estimates(targets)
        converged = max(estimates) <= tol
        if converged or final:
            reports = tuple(S._report(t, e, est) for (t, e), est in zip(targets, estimates))
            return AdaptiveResult(S, reports, converged)
        worst = estimates.index(max(estimates))
