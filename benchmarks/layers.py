"""Traced pass: per-module timings measured from the benchmark's side.

The traced pass rebuilds ``px.build`` and ``px.solve_adaptive`` from the
package's public pieces and times each call into a module. Layers are the
package modules ``linalg``, ``toeplitz``, ``arnoldi``, ``matfun`` and
``solver``; ``problems`` is timed as set-up, ``reference`` and ``cli`` not
at all.

Where a public call runs another module inside it, the inner call is
repeated on the same input as a *shadow* call and timed on its own, and the
outer layer's self time is its call time minus the shadow time:

- ``arnoldi.orth_s`` = ``InfiniteArnoldi.step`` minus ``structured_matvec``
  on the column the step expands;
- ``solver.aposteriori_s`` = ``aposteriori_krylov`` minus ``phi_columns``
  and the residual ``structured_matvec``;
- ``solver.coeff_synth_s`` = ``coefficients(t, 1)``, which fills the
  solution's per-t coefficient cache that ``evaluate`` reads, minus
  ``expm(t H)``.

``toeplitz.gamma_s`` includes the two-norm estimate ``heuristic_gamma`` makes.
The bound inputs are assembled from ``two_norm_estimate`` and ``log_norm``
with the formula of ``BoundInputs.from_polynomial``, so both linalg calls
are timed. The pass's H, p_used, gamma, bound inputs, every ErrorReport
field and a digest of every answer must equal the untraced pass bit for
bit; otherwise the per-layer numbers are marked invalid.
"""

from __future__ import annotations

import math
import tracemalloc
from collections import defaultdict

import numpy as np

import paramexpmv as px
from paramexpmv.solver import BOUND_INPUT_TOL, DEFAULT_CHECK_INTERVAL

from workloads import (
    ADAPTIVE_P_MAX, ADAPTIVE_TOL, PassRecord, Public, Workload, clock, run_pass,
    staircase_bytes,
)


class Spans:
    """Busy time and call count per layer span, accumulated in memory."""

    def __init__(self):
        self.time = defaultdict(float)
        self.calls = defaultdict(int)

    def call(self, name: str, fn, *args):
        t0 = clock()
        out = fn(*args)
        self.time[name] += clock() - t0
        self.calls[name] += 1
        return out


def _exp_or_inf(logval: float) -> float:
    # Same arithmetic as the remainder term of ParameterizedSolution.error_report.
    if logval == -math.inf:
        return 0.0
    try:
        return math.exp(logval)
    except OverflowError:
        return math.inf


class TracedRun:
    """One traced pass over a workload; mirrors the untraced orchestration."""

    def __init__(self):
        self.sp = Spans()
        self.seen_t = set()  # t values whose coefficients are cached
        self.phi_keys = set()  # distinct (solution, t) pairs given to phi_columns
        self.residual_keys = set()  # distinct solutions whose residual was multiplied
        self.solutions = 0

    # -- offline ---------------------------------------------------------

    def prepare(self, P):
        sp = self.sp
        gamma = sp.call("toeplitz.gamma", px.heuristic_gamma, P)
        scaled = P.scaled(gamma) if gamma != 1.0 else P
        norms = [sp.call("linalg.two_norm", px.two_norm_estimate, C, BOUND_INPUT_TOL)
                 for C in P.coeffs]
        mu0 = sp.call("linalg.log_norm", px.log_norm, P.coeffs[0], BOUND_INPUT_TOL)
        tail = norms[1:]
        bounds = px.BoundInputs(alpha=float(sum(norms)), beta=float(mu0 + sum(tail)),
                                mu0=float(mu0), a=float(max(tail, default=0.0)))
        return gamma, scaled, bounds

    def step(self, it, scaled, first_column) -> bool:
        x = first_column if it.p == 0 else it.decomposition().residual_vector
        self.sp.call("toeplitz.matvec_step", px.structured_matvec, scaled, x)
        return self.sp.call("arnoldi.step", it.step)

    def solution(self, it, P, scaled, gamma, bounds):
        self.solutions += 1
        return px.ParameterizedSolution(it.decomposition(), P, scaled, gamma, bounds)

    def offline(self, wl: Workload, P, u0):
        """Traced ``build`` or ``solve_adaptive``; returns (solution, adaptive result)."""
        gamma, scaled, bounds = self.prepare(P)
        first_column = np.asarray(u0).ravel() / float(np.linalg.norm(u0))
        it = px.InfiniteArnoldi(scaled, u0)
        if wl.p is not None:
            for _ in range(wl.p):
                if not self.step(it, scaled, first_column):
                    break
            return self.solution(it, P, scaled, gamma, bounds), None
        while True:
            self.step(it, scaled, first_column)
            at_cap = it.p >= ADAPTIVE_P_MAX
            if it.breakdown or at_cap or it.p % DEFAULT_CHECK_INTERVAL == 0:
                self.sp.calls["solver.checks"] += 1
                S = self.solution(it, P, scaled, gamma, bounds)
                reports = tuple(self.error_report(S, t, e) for t, e in wl.targets)
                if max(r.total_estimate for r in reports) <= ADAPTIVE_TOL:
                    return S, px.AdaptiveResult(S, reports, True)
                if it.breakdown or at_cap:
                    return S, px.AdaptiveResult(S, reports, False)

    # -- online ----------------------------------------------------------

    def error_report(self, S, t, eps):
        """``S.error_report`` from ``apriori`` and ``aposteriori_krylov``."""
        sp, K = self.sp, S.decomposition
        if not K.breakdown:
            self.phi_keys.add((self.solutions, t))
            self.residual_keys.add(self.solutions)
            sp.call("matfun.phi", px.phi_columns, K.hessenberg, t)
            sp.call("toeplitz.matvec_residual", px.structured_matvec, S.scaled_poly,
                    K.residual_vector)
        t0 = clock()
        if S.p >= 2:
            kry, trunc, total = sp.call("solver.apriori", S.apriori, t, eps)
        else:
            kry = trunc = total = math.inf
        post = sp.call("solver.aposteriori", S.aposteriori_krylov, t, eps)
        total_est = post
        if S.degree == 1:
            ae = abs(eps)
            if ae > 0.0 and S.bounds.a > 0.0:
                total_est += _exp_or_inf(
                    S.p * math.log(ae * t * S.bounds.a)
                    - math.lgamma(S.p + 1)
                    + t * (S.bounds.mu0 + ae * S.bounds.a)
                )
        report = px.ErrorReport(
            t=t, eps=eps,
            apriori_krylov=kry, apriori_truncation=trunc, apriori_total=total,
            aposteriori_krylov=post, total_estimate=total_est,
        )
        sp.time["solver.error_report"] += clock() - t0
        sp.calls["solver.error_report"] += 1
        return report

    def synthesize(self, S, t) -> None:
        """Fills the coefficient cache for a new t, timing ``expm(t H)`` as a shadow."""
        if t in self.seen_t:
            return
        self.seen_t.add(t)
        self.sp.call("matfun.expm", px.expm, t * S.decomposition.hessenberg)
        self.sp.call("solver.coeff_synth", S.coefficients, t, 1)

    def query(self, S, q):
        if q.kind == "evaluate":
            self.synthesize(S, q.t)
            return self.sp.call("solver.horner", S.evaluate, q.t, q.eps)
        if q.kind == "error_report":
            return self.error_report(S, q.t, q.eps)
        self.synthesize(S, q.t)
        return self.sp.call("solver.coeff_synth", S.coefficients, q.t)


def alloc_peak_mb(wl: Workload) -> float:
    """tracemalloc peak of the untraced offline call, in MB.

    Measured in a pass of its own: tracing allocations slows Python-heavy
    code (the adaptive loop) too much to share a pass with the timings.
    """
    P, u0 = px.generate(wl.problem, wl.params)
    tracemalloc.start()
    try:
        Public.offline(wl, P, u0)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def traced_pass(wl: Workload) -> PassRecord:
    """One traced pass: the untraced pass's work plus shadow calls, with per-layer metrics."""
    run = TracedRun()
    rec, S = run_pass(wl, run, rounds=1, fingerprint=True)
    if S is not None:
        rec.layers = layer_metrics(run, S)
    return rec


def layer_metrics(run: TracedRun, S) -> dict[str, float]:
    """Per-layer metrics of one traced pass; the caller adds the trace.* ones."""
    T, C = run.sp.time, run.sp.calls
    matvec_s = T["toeplitz.matvec_step"] + T["toeplitz.matvec_residual"]
    orth_s = T["arnoldi.step"] - T["toeplitz.matvec_step"]
    aposteriori_s = T["solver.aposteriori"] - T["matfun.phi"] - T["toeplitz.matvec_residual"]
    coeff_synth_s = T["solver.coeff_synth"] - T["matfun.expm"]
    packed, orth_bytes = staircase_bytes(S)
    residual_calls = C["toeplitz.matvec_residual"]
    m = {
        "linalg.log_norm_s": T["linalg.log_norm"],
        "linalg.two_norm_s": T["linalg.two_norm"],
        "toeplitz.gamma_s": T["toeplitz.gamma"],
        "arnoldi.step_s": T["arnoldi.step"],
        "arnoldi.orth_s": orth_s,
        "arnoldi.steps": C["arnoldi.step"],
        "arnoldi.basis_packed_mb": packed / 1e6,
        "arnoldi.orth_gb_min": orth_bytes / 1e9,
        "arnoldi.orth_gbps": orth_bytes / 1e9 / orth_s,
        "toeplitz.matvec_s": matvec_s,
        "toeplitz.matvec_calls": C["toeplitz.matvec_step"] + residual_calls,
        "solver.residual_matvec_useful_ratio":
            len(run.residual_keys) / residual_calls if residual_calls else 1.0,
        "matfun.phi_s": T["matfun.phi"],
        "matfun.phi_calls": C["matfun.phi"],
        "matfun.phi_useful_ratio":
            len(run.phi_keys) / C["matfun.phi"] if C["matfun.phi"] else 1.0,
        "solver.error_report_s": T["solver.error_report"],
        "solver.error_reports": C["solver.error_report"],
        "solver.apriori_s": T["solver.apriori"],
        "solver.aposteriori_s": aposteriori_s,
        "solver.checks": C["solver.checks"],
        "solver.coeff_synth_s": coeff_synth_s,
        "solver.coeff_synth_calls": C["solver.coeff_synth"],
        "matfun.expm_s": T["matfun.expm"],
        "matfun.expm_calls": C["matfun.expm"],
        "solver.horner_s": T["solver.horner"],
        "solver.evaluations": C["solver.horner"],
    }
    # Self times that partition the traced work; the rest is unattributed.
    m["_self_s"] = (m["linalg.log_norm_s"] + m["linalg.two_norm_s"] + m["toeplitz.gamma_s"]
                    + matvec_s + orth_s + m["matfun.phi_s"] + m["solver.apriori_s"]
                    + aposteriori_s + m["matfun.expm_s"] + coeff_synth_s
                    + m["solver.horner_s"])
    return m


def same_bits(a, b) -> bool:
    """Bit-for-bit equality of two numbers or arrays (NaN equals NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def fingerprint_items(rec: PassRecord) -> list[tuple[str, object]]:
    items = [("p_used", rec.p_used), ("H", rec.H), ("gamma", rec.gamma)]
    if rec.bounds is not None:
        items += [(f"BoundInputs.{k}", v) for k, v in vars(rec.bounds).items()]
    for j, report in enumerate(rec.reports):
        items += [(f"ErrorReport[{j}].{k}", v) for k, v in vars(report).items()]
    items.append(("answer digest", rec.digest))
    return items


def gate(untraced: PassRecord, traced: PassRecord) -> list[str]:
    """What differs between the traced and the untraced pass; empty when bit-identical."""
    a, b = fingerprint_items(untraced), fingerprint_items(traced)
    if [k for k, _ in a] != [k for k, _ in b]:
        return ["the passes fingerprint different fields"]
    return [k for (k, x), (_, y) in zip(a, b) if not same_bits(x, y)]
