"""Benchmark of paramexpmv: offline build, online queries and adaptive solve.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload advdiff1-build --seed 1 --seconds 30 --trace 0

Workloads: ``advdiff1-build``, ``wave-sweep`` and ``advdiff2-adaptive``
(see ``workloads.py`` and ``NOTES.md``). The run repeats untraced passes of
the workload for ``--seconds`` seconds and reports medians. With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones instead (see ``layers.py``).

Stdout: one line of details (all end-to-end metrics with units, machine
facts, tolerances, failures), then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``. Exits without a
result: 2 when the package source ``src/paramexpmv`` is not beside this
directory, 3 when no pass produced timings or a traced pass failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: glibc's _SC_LEVEL3_CACHE_SIZE, which os.sysconf_names does not list.
_SC_LEVEL3_CACHE_SIZE = 194

#: BLAS thread variables, set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: BLAS threads per run. On 2 shared cores, 2 threads made the small dense
#: calls of the query phase 1-3.5x slower and far noisier than 1 thread.
BLAS_THREADS = 1

#: Fewest untraced passes in a run without tracing, so medians have three samples.
MIN_PASSES = 3

#: Unit of each end-to-end metric; fail_frac is printed in the details only.
END_TO_END_UNITS = {
    "setup_s": "s", "offline_s": "s", "query_s": "s", "total_s": "s",
    "evals_per_s": "1/s", "p_used": "count", "peak_rss_mb": "MB", "fail_frac": "ratio",
}

#: Units of the per-layer metrics not named with a unit suffix.
LAYER_UNITS = {
    "arnoldi.basis_alloc_mb": "MB", "arnoldi.basis_packed_mb": "MB",
    "arnoldi.orth_gb_min": "GB", "arnoldi.orth_gbps": "GB/s",
    "trace.unattributed_frac": "ratio", "trace.predicted_share": "ratio",
    "trace.bit_identical": "count",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = os.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (ValueError, OSError):
        l3 = None
    return {
        "nproc": nproc(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "l3_bytes": l3,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(wl, seconds: float, traced: bool) -> tuple[list, float | None]:
    """Passes until the next one would end after ``seconds``; returns (passes, alloc peak).

    A run without tracing makes at least MIN_PASSES passes. A traced run
    first measures the offline call's allocation peak, then alternates
    untraced and traced passes, at least one of each.
    """
    from layers import alloc_peak_mb, traced_pass
    from workloads import Public, clock, run_pass

    passes = []
    start = clock()
    alloc = alloc_peak_mb(wl) if traced else None
    while True:
        t0 = clock()
        if traced and len(passes) % 2:
            passes.append(traced_pass(wl))
        else:
            passes.append(run_pass(wl, Public, wl.query_rounds, fingerprint=traced)[0])
        last = clock() - t0
        if len(passes) >= (2 if traced else MIN_PASSES) and clock() - start + last > seconds:
            return passes, alloc


def end_to_end(passes: list) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med([s for r in passes for s in r.setup_s]),
        "offline_s": med([r.offline_s for r in passes]),
        "query_s": med([q for r in passes for q in r.query_s]),
        "total_s": med([r.total_s for r in passes]),
        "evals_per_s": med([e for r in passes for e in r.evals_per_s]),
        "p_used": med([r.p_used for r in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": sum(len(r.failures) for r in passes) / sum(r.attempted for r in passes),
    }


def per_layer(wl, untraced: list, traced: list, alloc_mb: float) -> tuple[dict[str, float], dict]:
    """Median per-layer metrics of the traced passes, the trace.* metrics and the gate."""
    from layers import gate

    names = traced[0].layers.keys()
    m = {k: statistics.median(r.layers[k] for r in traced) for k in names}
    m["arnoldi.basis_alloc_mb"] = alloc_mb
    work = statistics.median(r.offline_s + statistics.median(r.query_s) for r in untraced)
    self_s = m.pop("_self_s")
    m["trace.unattributed_frac"] = (work - self_s) / work
    m["trace.overhead_s"] = (statistics.median(r.total_s for r in traced)
                             - statistics.median(r.total_s for r in untraced))
    diffs = sorted({d for r in traced for d in gate(untraced[0], r)})
    m["trace.bit_identical"] = 0 if diffs else 1
    # Share of the layers' self time spent in the layers predicted to dominate.
    m["trace.predicted_share"] = sum(m[k] for k in wl.predicted) / self_s
    return m, {
        "per_layer_valid": not diffs,
        "gate_differences": diffs,
        "predicted": list(wl.predicted),
        "predicted_confirmed": m["trace.predicted_share"] > 0.5,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "paramexpmv" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'paramexpmv'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import paramexpmv
    from workloads import WORKLOADS, check_answers, oracle, warm_up

    if Path(paramexpmv.__file__).resolve().parent != SRC / "paramexpmv":
        print(f"benchmark: imported paramexpmv from {paramexpmv.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r} "
              f"(choose from {sorted(WORKLOADS)})", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed)
    warm_up()
    refs = oracle(wl, *paramexpmv.generate(wl.problem, wl.params))
    passes, alloc_mb = measure(wl, args.seconds, traced=bool(args.trace))
    worst = max(check_answers(wl, r, refs) for r in passes)
    untraced = [r for r in passes if not r.traced]
    traced = [r for r in passes if r.traced]
    attempted = sum(r.attempted for r in passes)
    failed = sum(len(r.failures) for r in passes)
    # correct: every oracle-checked answer arrived within tolerance and every
    # adaptive solve converged. Every failed operation counts in `failed`.
    correct = not any(r.wrong for r in passes)

    failures = sorted({f"{op}: {why}" for r in passes for op, why in r.failures.items()})
    timed = [r for r in untraced if r.query_s]  # passes whose offline call succeeded
    try:
        e2e = end_to_end(timed)
    except statistics.StatisticsError:  # no solution, or no evaluate answer, to time
        print("benchmark: no timings to report:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 3
    details = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "per_pass": {
            "offline_s": [r.offline_s for r in timed],
            "query_s": [r.query_s for r in timed],
            "total_s": [r.total_s for r in timed],
            "setup_samples": sum(len(r.setup_s) for r in timed),
        },
        "oracle": {"kind": wl.tol_kind, "tol": wl.tol, "why": wl.tol_why,
                   "checked_per_pass": len(refs), "worst_error": worst},
        "failures": failures,
        "machine": {**machine_facts(), "basis_mb": timed[-1].basis_mb},
    }
    if args.trace:
        if not all(r.layers for r in traced):
            print("benchmark: a traced pass failed, so there are no per-layer numbers:\n  "
                  + "\n  ".join(failures), file=sys.stderr)
            return 3
        metrics, details["trace"] = per_layer(wl, timed, traced, alloc_mb)
        details["machine"]["basis_mb"]["alloc_peak"] = metrics["arnoldi.basis_alloc_mb"]
        result = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        result = {k: v for k, v in details["end_to_end"].items() if k != "fail_frac"}
    print(json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
