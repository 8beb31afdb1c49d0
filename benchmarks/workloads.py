"""The benchmark's workloads: fixed problems, seeded query points, oracle checks.

A workload runs one built-in problem through the public API in three phases:
set-up (``px.generate``), the offline call (``px.build`` or
``px.solve_adaptive``) and the online queries on the freshly built solution.
The seed draws only query points, never problem sizes. A seeded subset of
the ``evaluate`` answers is checked against ``scipy.sparse.linalg.expm_multiply``
(Al-Mohy & Higham, SISC 2011), which has no dimension cap.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import expm_multiply

import paramexpmv as px

clock = time.perf_counter

#: Tolerance of the adaptive workload; also the absolute error its answers must meet.
ADAPTIVE_TOL = 1e-8

#: Step cap of the adaptive solve (the library default, passed explicitly).
ADAPTIVE_P_MAX = 200

#: ``px.generate`` calls per pass; ``setup_s`` is the median of all of them.
SETUP_REPEATS = 10


@dataclass(frozen=True)
class Query:
    """One online call on the solution: ``evaluate``, ``error_report`` or ``coefficients``."""

    kind: str
    t: float
    eps: complex = 0.0
    checked: bool = False  # answer compared with the oracle


@dataclass(frozen=True)
class Workload:
    """A problem, its offline call, its queries and how the answers are checked."""

    name: str
    problem: str
    params: dict
    p: int | None  # Arnoldi steps of px.build; None runs px.solve_adaptive
    targets: tuple  # (t, eps) targets of the adaptive solve
    queries: tuple[Query, ...]
    tol_kind: str  # "rel" or "abs" error against the oracle
    tol: float
    tol_why: str
    predicted: tuple[str, ...]  # per-layer metrics predicted to dominate
    query_rounds: int  # query rounds per untraced pass, each on a fresh solution


def advdiff1_build(seed: int) -> Workload:
    # The README's three fixed targets: this workload draws nothing from the seed.
    queries = []
    for eps in (1e-3, 1.5e-2, 3e-2):
        queries += [Query("evaluate", 0.5, eps, checked=True), Query("error_report", 0.5, eps)]
    queries.append(Query("coefficients", 0.5))
    return Workload(
        name="advdiff1-build", problem="advdiff1", params={"n": 2000, "a": 3e-4},
        p=100, targets=(), queries=tuple(queries),
        tol_kind="rel", tol=2e-2,
        tol_why="cost workload: p=100 leaves relative errors 2.5e-4, 2.7e-3 and 8.7e-3 "
                "at the three targets; 2e-2 catches a broken build, not the method's accuracy",
        predicted=("linalg.two_norm_s", "linalg.log_norm_s", "arnoldi.step_s"),
        query_rounds=8,
    )


def wave_sweep(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.1, 1.0, 48)
    eps = rng.uniform(0.0, 2.0, 48).astype(complex)
    imag = rng.choice(48, 24, replace=False)
    eps[imag] += 1j * rng.uniform(-0.5, 0.5, 24)
    grid = [(float(t), complex(e) if e.imag else float(e.real)) for t in ts for e in eps]
    order = rng.permutation(len(grid))
    checked = set(rng.choice(len(grid), 16, replace=False).tolist())
    queries = [Query("evaluate", *grid[i], checked=i in checked) for i in order]
    queries += [Query("error_report", *grid[i]) for i in rng.choice(len(grid), 6, replace=False)]
    return Workload(
        name="wave-sweep", problem="wave", params={"points": 15, "gamma1": 2.0},
        p=40, targets=(), queries=tuple(queries),
        tol_kind="rel", tol=1e-12,
        tol_why="p=40 resolves the solution to rounding (7.6e-16 measured); "
                "1e-12 leaves room for a different summation order",
        predicted=("solver.coeff_synth_s", "solver.horner_s"),
        query_rounds=1,
    )


def advdiff2_adaptive(seed: int) -> Workload:
    # Fixed box corners keep the hardest target, and so p_used, independent of the seed.
    rng = np.random.default_rng(seed)
    ts = [0.05, *sorted(rng.uniform(0.05, 0.5, 8)), 0.5]
    eps = [1e-4, *sorted(rng.uniform(1e-4, 1.5e-2, 8)), 1.5e-2]
    targets = tuple((float(t), float(e)) for t in ts for e in eps)
    checked = set(rng.choice(len(targets), 12, replace=False).tolist())
    queries = tuple(Query("evaluate", t, e, checked=i in checked)
                    for i, (t, e) in enumerate(targets))
    return Workload(
        name="advdiff2-adaptive", problem="advdiff2", params={"n": 300, "a": 3e-4, "b": 2e2},
        p=None, targets=targets, queries=queries,
        tol_kind="abs", tol=ADAPTIVE_TOL,
        tol_why="the solve is asked for tol=1e-8, so every answer must be within 1e-8 "
                "in the 2-norm (1e-11 to 1e-10 measured)",
        predicted=("solver.error_report_s",),
        query_rounds=5,
    )


WORKLOADS = {
    "advdiff1-build": advdiff1_build,
    "wave-sweep": wave_sweep,
    "advdiff2-adaptive": advdiff2_adaptive,
}


def output_failure(q: Query, out) -> str | None:
    """Why an online answer counts as failed, or None.

    A priori bounds may be +inf: ``apriori_bounds`` documents overflow to
    +inf as a valid (vacuous) bound. NaN anywhere, and a non-finite
    estimate, are failures.
    """
    if q.kind == "error_report":
        fields = [out.apriori_krylov, out.apriori_truncation, out.apriori_total,
                  out.aposteriori_krylov, out.total_estimate]
        if any(math.isnan(x) for x in fields):
            return "NaN in the error report"
        if not (math.isfinite(out.aposteriori_krylov) and math.isfinite(out.total_estimate)):
            return "non-finite error estimate"
        return None
    if not np.all(np.isfinite(out)):
        return "non-finite output"
    return None


@dataclass
class PassRecord:
    """What one pass measured and answered."""

    traced: bool
    setup_s: list[float]
    offline_s: float = 0.0
    query_s: list[float] = field(default_factory=list)  # one per query round
    evals_per_s: list[float] = field(default_factory=list)  # one per query round
    attempted: int = 0
    failures: dict[str, str] = field(default_factory=dict)  # operation -> why it failed
    wrong: bool = False  # a checked answer missing or out of tolerance, or no convergence
    answers: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)  # (round, query)
    basis_mb: dict[str, float] = field(default_factory=dict)
    # Fingerprint of the solution's first query round, compared between
    # traced and untraced passes.
    p_used: int = 0
    H: np.ndarray | None = None
    gamma: float = 0.0
    bounds: object = None
    reports: list = field(default_factory=list)
    digest: str = ""
    layers: dict = field(default_factory=dict)  # per-layer metrics of a traced pass

    @property
    def total_s(self) -> float:
        return self.setup_s[-1] + self.offline_s + statistics.median(self.query_s)

    def fail(self, op: str, why: str, wrong: bool) -> None:
        self.failures.setdefault(op, why)
        self.wrong |= wrong

    def fingerprint(self, S, adaptive, reports, digest) -> None:
        self.H = S.decomposition.H.copy()
        self.gamma = S.gamma
        self.bounds = S.bounds
        self.reports = (list(adaptive.reports) if adaptive is not None else []) + reports
        self.digest = digest.hexdigest()


def op_name(r: int, i: int, q: Query) -> str:
    return f"round {r} #{i} {q.kind}(t={q.t:.6g}, eps={q.eps:.6g})"


def generate(wl: Workload, rec: PassRecord):
    """Set-up: SETUP_REPEATS timed ``px.generate`` calls; the last one is used."""
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        P, u0 = px.generate(wl.problem, wl.params)
        rec.setup_s.append(clock() - t0)
    return P, u0


def staircase_bytes(S) -> tuple[float, float]:
    """Computed (packed basis bytes, CGS2 bytes read at the staircase floor).

    Column j (1-based) of the basis is nonzero in its first n(1+(j-1)N)
    entries. CGS2 in step l reads columns 1..l four times: two projections
    and two updates.
    """
    K = S.decomposition
    item = K.Q.dtype.itemsize
    cols = np.array([S.n * (1 + (j - 1) * S.degree) for j in range(1, K.Q.shape[1] + 1)])
    packed = item * float(cols.sum())
    orth = 4 * item * float(np.cumsum(cols[:S.p]).sum())
    return packed, orth


class Public:
    """The untraced runner: only public entry points run inside the timed regions."""

    @staticmethod
    def offline(wl: Workload, P, u0):
        """``px.build`` or ``px.solve_adaptive``; returns (solution, adaptive result or None)."""
        if wl.p is not None:
            return px.build(P, u0, wl.p), None
        result = px.solve_adaptive(P, u0, wl.targets, tol=ADAPTIVE_TOL, p_max=ADAPTIVE_P_MAX)
        return result.solution, result

    @staticmethod
    def query(S, q: Query):
        if q.kind == "evaluate":
            return S.evaluate(q.t, q.eps)
        if q.kind == "error_report":
            return S.error_report(q.t, q.eps)
        return S.coefficients(q.t)


def query_round(wl: Workload, rec: PassRecord, runner, S, r: int, reports, digest) -> None:
    """Every query once on S; appends the round's query time and evaluate rate."""
    query_s = eval_s = 0.0
    evals = 0
    for i, q in enumerate(wl.queries):
        try:
            t0 = clock()
            out = runner.query(S, q)
            dt = clock() - t0
        except Exception as exc:  # recorded as a failed operation
            rec.fail(op_name(r, i, q), repr(exc), wrong=q.checked)
            continue
        query_s += dt
        if q.kind == "evaluate":
            eval_s += dt
            evals += 1
        why = output_failure(q, out)
        if why is not None:
            rec.fail(op_name(r, i, q), why, wrong=q.checked)
        if q.kind == "error_report":
            reports.append(out)
            continue
        if q.checked:
            rec.answers[r, i] = out
        if digest is not None:
            digest.update(np.ascontiguousarray(out).tobytes())
    rec.query_s.append(query_s)
    if evals:
        rec.evals_per_s.append(evals / eval_s)


def run_pass(wl: Workload, runner, rounds: int, fingerprint: bool):
    """One pass: set-up, the offline call and ``rounds`` query rounds.

    Round 0 queries the solution the offline call returned; each later
    round queries a fresh ``S.with_p(S.p)``, the same decomposition with no
    cached coefficients. Exceptions from the program count as failed
    operations and the pass goes on. Returns (record, solution).
    """
    rec = PassRecord(traced=runner is not Public, setup_s=[])
    P, u0 = generate(wl, rec)
    rec.attempted = 1 + rounds * len(wl.queries)
    try:
        t0 = clock()
        S, adaptive = runner.offline(wl, P, u0)
        rec.offline_s = clock() - t0
    except Exception as exc:  # recorded as a failed operation
        rec.fail("offline", repr(exc), wrong=True)
        for r in range(rounds):
            for i, q in enumerate(wl.queries):
                rec.fail(op_name(r, i, q), "no solution", wrong=q.checked)
        return rec, None
    if adaptive is not None and not adaptive.converged:
        rec.fail("offline", "converged=False", wrong=True)
    reports = []
    digest = hashlib.sha256() if fingerprint else None
    query_round(wl, rec, runner, S, 0, reports, digest)
    for r in range(1, rounds):
        query_round(wl, rec, runner, S.with_p(S.p), r, [], None)
    rec.p_used = S.p
    Q = S.decomposition.Q
    rec.basis_mb = {"allocated": (Q.base if Q.base is not None else Q).nbytes / 1e6,
                    "packed": staircase_bytes(S)[0] / 1e6}
    if fingerprint:
        rec.fingerprint(S, adaptive, reports, digest)
    return rec, S


def oracle(wl: Workload, P, u0) -> dict[int, np.ndarray]:
    """``expm_multiply(t A(eps)) u0`` for every checked query, computed untimed."""
    return {i: expm_multiply(q.t * P(q.eps), u0)
            for i, q in enumerate(wl.queries) if q.checked}


def check_answers(wl: Workload, rec: PassRecord, refs: dict[int, np.ndarray]) -> float:
    """Fails every checked answer outside the tolerance; returns the worst error."""
    worst = 0.0
    for (r, i), u in rec.answers.items():
        ref = refs[i]
        err = float(np.linalg.norm(u - ref))
        if wl.tol_kind == "rel":
            err /= float(np.linalg.norm(ref))
        worst = max(worst, err)
        if not err <= wl.tol:
            rec.fail(op_name(r, i, wl.queries[i]),
                     f"{wl.tol_kind} error {err:.3e} > {wl.tol:g}", wrong=True)
    return worst


def warm_up() -> None:
    """Runs each timed call once on tiny problems, so lazy imports happen before timing."""
    for name, params in (("advdiff1", {"n": 50, "a": 3e-4}), ("wave", {"points": 3, "gamma1": 2.0})):
        px.generate(name, params)
    P, u0 = px.generate("advdiff2", {"n": 40, "a": 3e-4, "b": 2e2})
    S = px.build(P, u0, 6)
    S.evaluate(0.1, 1e-3)
    S.evaluate(0.1, 1e-3 + 1e-3j)
    S.error_report(0.1, 1e-3)
    S.coefficients(0.2, 1)
    px.solve_adaptive(P, u0, [(0.1, 1e-3)], tol=1e-3, p_max=10)
    expm_multiply(0.1 * P(1e-3 + 1e-3j), u0)
