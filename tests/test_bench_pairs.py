"""The summary of tools/bench_pairs.py on hand-made pairs; no benchmark runs."""
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

# Ten parent runs with quartiles 40.0375 and 40.0725 (IQR 0.035), median 40.05.
PARENT = [40.03, 40.05, 40.07, 40.04, 40.06, 40.08, 40.05, 40.02, 40.09, 40.05]


def test_claim_met_when_every_pair_wins_by_more_than_the_iqr():
    s = summarize(PARENT, [p - 1.1 for p in PARENT], "lower", 0.1)
    assert (s["wins"], s["ties"], s["pairs"]) == (10, 0, 10)
    assert s["gap"] == pytest.approx(1.1) and s["gap_over_iqr"] == pytest.approx(1.1 / 0.035)
    assert s["claim"] and s["bound"] == "within bound"


def test_claim_not_met_at_8_of_10():
    change = [p - 1.1 for p in PARENT[:8]] + [p + 0.5 for p in PARENT[8:]]
    s = summarize(PARENT, change, "lower", 0.1)
    assert s["wins"] == 8 and s["gap"] > 0.035
    assert not s["claim"]


def test_a_tie_counts_for_neither_side():
    # Nine wins and a tie are 9/10; eight wins and two ties are not.
    nine = [p - 1.1 for p in PARENT[:9]] + PARENT[9:]
    s = summarize(PARENT, nine, "lower", 0.1)
    assert (s["wins"], s["ties"], s["claim"]) == (9, 1, True)
    eight = [p - 1.1 for p in PARENT[:8]] + PARENT[8:]
    s = summarize(PARENT, eight, "lower", 0.1)
    assert (s["wins"], s["ties"], s["claim"]) == (8, 2, False)


def test_a_gap_inside_the_iqr_is_no_claim():
    s = summarize(PARENT, [p - 0.01 for p in PARENT], "lower", 0.1)
    assert s["wins"] == 10 and not s["claim"]


def test_the_direction_decides_who_wins():
    # The same values: lower is the change's gain, higher its loss.
    change = [p * 0.8 for p in PARENT]
    lower = summarize(PARENT, change, "lower", 0.1)
    higher = summarize(PARENT, change, "higher", 0.1)
    assert (lower["wins"], lower["claim"], lower["bound"]) == (10, True, "within bound")
    assert (higher["wins"], higher["claim"], higher["bound"]) == (0, False, "worse")
    assert higher["worse_by"] == pytest.approx(0.2) == -lower["worse_by"]


def test_within_the_bound_is_no_regression():
    s = summarize(PARENT, [p * 1.05 for p in PARENT], "lower", 0.1)
    assert s["wins"] == 0 and s["bound"] == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    # Set-up times that jump between 0.15 s and 0.25 s on both sides: the
    # change's median is 67 % worse, but either side's IQR is wider than
    # the 25 % bound and the runs overlap.
    parent = [0.15, 0.25, 0.15, 0.15, 0.25, 0.15, 0.16, 0.25, 0.15, 0.15]
    change = [0.25, 0.15, 0.25, 0.25, 0.15, 0.24, 0.25, 0.15, 0.25, 0.26]
    s = summarize(parent, change, "lower", 0.25)
    assert s["worse_by"] > 0.25 and s["spread"] > 0.25
    assert s["bound"] == "unresolved" and not s["claim"]


def test_a_wide_spread_still_shows_a_regression_every_run_makes():
    parent = [1.0, 1.5, 1.0, 1.5]
    s = summarize(parent, [3.0, 3.5, 3.0, 3.5], "lower", 0.25)
    assert s["spread"] > 0.25 and s["bound"] == "worse"


def test_fewer_than_10_pairs_claim_nothing():
    s = summarize([2.0], [1.0], "lower", 0.25)
    assert s["parent"] == (2.0, 2.0, 2.0) and s["spread"] == 0.0
    assert s["wins"] == 1 and s["gap_over_iqr"] == float("inf") and not s["claim"]
    s = summarize(PARENT[:9], [p - 1.1 for p in PARENT[:9]], "lower", 0.1)
    assert s["wins"] == 9 and s["gap"] > 0.035 and not s["claim"]


@pytest.mark.parametrize("parent, change, better", [
    ([1.0], [1.0], "faster"), ([1.0, 2.0], [1.0], "lower"), ([1.0], [0.0], "lower")])
def test_malformed_input_is_refused(parent, change, better):
    with pytest.raises(ValueError):
        summarize(parent, change, better, 0.1)
