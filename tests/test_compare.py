import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare.py"
spec = importlib.util.spec_from_file_location("compare", TOOL)
compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 97.0, 103.0, 100.0, 99.5]


@pytest.mark.parametrize("change, better, status", [
    # 10 of 10 wins, medians 15 apart against a parent spread of about 2
    ([x + 15 for x in PARENT], "higher", "gain"),
    # 9 of 10 wins is enough
    ([x + 15 for x in PARENT[:9]] + [PARENT[9] - 1], "higher", "gain"),
    # 8 of 10 wins is not, though the median moved
    ([x + 15 for x in PARENT[:8]] + [x - 1 for x in PARENT[8:]], "higher", "unchanged"),
    # every pair won, by less than the parent's quartile spread
    ([x + 0.5 for x in PARENT], "higher", "unchanged"),
    # lower is better: the same numbers are a gain for time
    ([x - 15 for x in PARENT], "lower", "gain"),
    # 30% worse against a bound of 25%
    ([x * 1.3 for x in PARENT], "lower", "worse"),
    ([x * 0.7 for x in PARENT], "higher", "worse"),
    # 10% worse, within the bound
    ([x * 1.1 for x in PARENT], "lower", "unchanged"),
])
def test_verdict_on_canned_numbers(change, better, status):
    assert compare.verdict(PARENT, change, better, 0.25)["status"] == status


def test_verdict_counts_and_spread():
    v = compare.verdict(PARENT, [x + 15 for x in PARENT[:9]] + [PARENT[9]], "higher", 0.25)
    assert (v["wins"], v["losses"], v["pairs"]) == (9, 0, 10)
    assert v["parent_median"] == 100.0 and v["change_median"] == 115.0
    assert v["parent_quartiles"] == (99.125, 100.875)


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    wide = [50.0, 150.0, 60.0, 140.0, 100.0]
    # medians equal, spread far past the bound: no statement either way
    assert compare.verdict(wide, wide[::-1], "lower", 0.25)["status"] == "unresolved"
    # every change run below every parent run reads as no regression
    assert compare.verdict(wide, [x / 4 for x in wide], "lower", 0.25)["status"] == "unchanged"


def test_without_workload_every_workload_runs_in_turn(tmp_path, monkeypatch, capsys):
    # a stubbed benchmark: the change doubles total_s on "slow" only
    spec = {"command": ["bench"], "run_seconds": 1,
            "workloads": [{"name": "fast"}, {"name": "slow"}],
            "end_to_end": [{"name": "total_s", "better": "lower", "bound": 0.25}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def run(checkout, command, args, cpu):
        workload = args[args.index("--workload") + 1]
        calls.append(workload)
        value = 2.0 if (checkout.name, workload) == ("change", "slow") else 1.0
        return {"metrics": {"total_s": {"value": value}}, "correct": True,
                "failed": 0, "attempted": 10}

    monkeypatch.setattr(compare, "run", run)
    sides = [str(tmp_path / "parent"), str(tmp_path / "change")]
    assert compare.main(sides + ["--pairs", "3"]) == 1
    assert calls == ["fast"] * 6 + ["slow"] * 6
    out = capsys.readouterr().out
    fast, slow = out.split("workload fast\n")[1].split("workload slow\n")
    verdicts = [line.split(" (worse by")[0].split()[-1]
                for table in (fast, slow) for line in table.splitlines()
                if line.startswith("total_s")]
    assert verdicts == ["unchanged", "worse"]
    # one workload alone: only its pairs, and its verdict decides
    calls.clear()
    assert compare.main(sides + ["--pairs", "3", "--workload", "fast"]) == 0
    assert calls == ["fast"] * 6
