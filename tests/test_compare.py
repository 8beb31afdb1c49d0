import importlib.util
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
