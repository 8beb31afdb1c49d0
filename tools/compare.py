"""Compare the benchmark of two checkouts in alternating pairs of runs.

    python3 tools/compare.py PARENT CHANGE --pairs 10 --workload advdiff2-adaptive --first-seed 11
    python3 tools/compare.py PARENT CHANGE --pairs 10

PARENT and CHANGE are checkout directories (made with ``git archive`` or
``git clone``), each with its own ``BENCHMARK.json`` and ``benchmarks/``;
the two ``BENCHMARK.json`` must be equal. Without ``--workload`` every
workload of ``BENCHMARK.json`` is compared in turn, each with its own pairs
and table. For a workload, pair i runs the benchmark command
of ``BENCHMARK.json`` in both, with ``--seed first_seed + i``, ``--seconds
run_seconds`` and ``--trace 0``; even pairs run PARENT first, odd pairs
CHANGE first. Both runs of a pair are pinned to one CPU of this process's
affinity set (pair i takes the i-th, cycling), through ``os.sched_setaffinity``
in the child; nothing else about the machine is changed.

For each end-to-end metric it prints both sides' median and quartiles, the
pairs the change wins and loses, and a verdict: ``gain`` when the change
wins at least 9 in 10 pairs and the medians differ by more than the
parent's quartile spread; ``worse`` when the change's median is worse than
the parent's by more than the metric's bound; ``unresolved`` when either
side's quartile spread exceeds the bound and the change does not read better
on every pair; ``unchanged`` otherwise. Exits 1 if, on any workload, a
metric is worse, a run is not correct, or the change fails a larger share of
operations; else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Summary and verdict of one metric; parent[i] and change[i] are pair i.

    ``bound`` is the relative worsening the metric may show, taken against
    the parent's median.
    """
    sign = 1.0 if better == "higher" else -1.0
    gaps = [sign * (c - p) for p, c in zip(parent, change)]
    wins, losses = sum(g > 0 for g in gaps), sum(g < 0 for g in gaps)
    pm, cm = statistics.median(parent), statistics.median(change)
    pq, cq = quartiles(parent), quartiles(change)
    spread = pq[1] - pq[0]
    worse_by = sign * (pm - cm) / abs(pm) if pm else sign * (pm - cm)
    wide = max(spread, cq[1] - cq[0]) > bound * abs(pm)
    if wins >= WIN_SHARE * len(gaps) and sign * (cm - pm) > spread:
        status = "gain"
    elif worse_by > bound:
        status = "worse"
    elif wide and not min(sign * c for c in change) > max(sign * p for p in parent):
        status = "unresolved"
    else:
        status = "unchanged"
    return {"parent_median": pm, "parent_quartiles": pq, "change_median": cm,
            "change_quartiles": cq, "wins": wins, "losses": losses, "pairs": len(gaps),
            "worse_by": worse_by, "bound": bound, "status": status}


def _summary(median: float, q: tuple[float, float]) -> str:
    return f"{median:.6g} [{q[0]:.6g}, {q[1]:.6g}]"


def run(checkout: Path, command: list[str], args: list[str], cpu: int) -> dict:
    """One benchmark run in ``checkout`` pinned to ``cpu``; its result object."""
    proc = subprocess.run(command + args, cwd=checkout, capture_output=True, text=True,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(command + args)} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def compare(spec: dict, sides: dict, workload: str, pairs: int, first_seed: int) -> bool:
    """Runs ``pairs`` alternating pairs of ``workload`` and prints its table;
    True if a metric reads worse, a run is not correct, or the change fails a
    larger share of operations."""
    cpus = sorted(os.sched_getaffinity(0))
    results = {"parent": [], "change": []}
    names = [m["name"] for m in spec["end_to_end"]]
    for i in range(pairs):
        seed, cpu = first_seed + i, cpus[i % len(cpus)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        bench_args = ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        for side in order:
            r = run(sides[side], spec["command"], bench_args, cpu)
            results[side].append(r)
            values = " ".join(f"{n}={r['metrics'][n]['value']:.6g}" for n in names)
            print(f"pair {i} seed {seed} cpu {cpu} {side}: {values}", flush=True)

    failed, shares = False, {}
    for side, rs in results.items():
        correct = sum(r["correct"] for r in rs)
        shares[side] = sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
        print(f"{side}: {correct}/{len(rs)} runs correct, failed share {shares[side]:.3g}")
        failed |= correct < len(rs)
    failed |= shares["change"] > shares["parent"]

    print(f"{'metric':<12} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
          f"{'wins':>5} {'losses':>6}  verdict")
    for m in spec["end_to_end"]:
        p = [r["metrics"][m["name"]]["value"] for r in results["parent"]]
        c = [r["metrics"][m["name"]]["value"] for r in results["change"]]
        v = verdict(p, c, m["better"], m["bound"])
        print(f"{m['name']:<12} {_summary(v['parent_median'], v['parent_quartiles']):<34} "
              f"{_summary(v['change_median'], v['change_quartiles']):<34} "
              f"{v['wins']:>5} {v['losses']:>6}  {v['status']} "
              f"(worse by {v['worse_by']:+.3f}, bound {v['bound']})")
        failed |= v["status"] == "worse"
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", help="one workload (default: every workload in turn)")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    specs = [json.loads((d / "BENCHMARK.json").read_text()) for d in (args.parent, args.change)]
    if specs[0] != specs[1]:
        raise SystemExit("the two checkouts declare different benchmarks")
    spec = specs[0]
    sides = {"parent": args.parent, "change": args.change}
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    failed = False
    for workload in workloads:
        print(f"workload {workload}", flush=True)
        failed |= compare(spec, sides, workload, args.pairs, args.first_seed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
