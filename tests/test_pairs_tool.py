"""The verdicts of ``tools/pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load()


@pytest.mark.parametrize("values, want", [
    ([1.0, 2.0, 3.0, 4.0, 5.0], (2.0, 3.0, 4.0)),
    ([1.0, 2.0, 3.0, 4.0], (1.75, 2.5, 3.25)),
    ([7.0], (7.0, 7.0, 7.0)),
])
def test_quartiles_are_inclusive(values, want):
    assert pairs.quartiles(values) == want


def test_a_summary_reports_medians_quartiles_and_the_relative_change():
    s = pairs.summarize([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 6.0, 8.0, 10.0], "lower", 0.25)
    assert s["base"] == (3.0, 2.0, 4.0) and s["change"] == (6.0, 4.0, 8.0)
    assert s["rel"] == 1.0 and s["worse_pairs"] == 5 and s["verdict"] == "worse"


def test_ties_count_for_neither_side():
    s = pairs.summarize([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 3.0, 3.0], "lower", 0.25)
    assert s["worse_pairs"] == 1 and s["pairs"] == 4
    # nine wins and a tie of ten are a gain; the tie is not a loss
    s = pairs.summarize([10.0] * 10, [9.0] * 9 + [10.0], "lower", 0.25)
    assert s["worse_pairs"] == 0 and s["verdict"] == "gain"


@pytest.mark.parametrize("better, change, verdict", [
    ("lower", [9.0] * 9 + [11.0], "gain"),  # 9 of 10 pairs
    ("lower", [9.0] * 8 + [11.0] * 2, "flat"),  # 8 of 10
    ("higher", [11.0] * 9 + [9.0], "gain"),
    ("higher", [11.0] * 8 + [9.0] * 2, "flat"),
])
def test_a_gain_needs_nine_tenths_of_the_pairs(better, change, verdict):
    assert pairs.summarize([10.0] * 10, change, better, 0.25)["verdict"] == verdict


def test_a_gain_needs_the_medians_apart_by_more_than_the_base_spread():
    base = [8.0, 9.0, 10.0, 11.0, 12.0] * 2  # interquartile range 2
    assert pairs.summarize(base, [b - 1.0 for b in base], "lower", 0.25)["verdict"] == "flat"
    assert pairs.summarize(base, [b - 2.5 for b in base], "lower", 0.25)["verdict"] == "gain"


@pytest.mark.parametrize("better, at_bound, past_bound", [
    ("lower", 125.0, 125.001),
    ("higher", 75.0, 74.999),
])
def test_worse_is_a_median_past_the_bound(better, at_bound, past_bound):
    assert pairs.summarize([100.0] * 6, [at_bound] * 6, better, 0.25)["verdict"] == "flat"
    assert pairs.summarize([100.0] * 6, [past_bound] * 6, better, 0.25)["verdict"] == "worse"


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    base = [80.0, 90.0, 100.0, 110.0, 120.0]  # interquartile range 20 of a median of 100
    assert pairs.summarize(base, [100.0] * 5, "lower", 0.15)["verdict"] == "unresolved"
    assert pairs.summarize(base, [100.0] * 5, "lower", 0.25)["verdict"] == "flat"


def test_a_wide_spread_is_resolved_when_every_change_run_beats_every_base_run():
    base = [80.0, 81.0, 100.0, 119.0, 120.0]  # interquartile range 38
    s = pairs.summarize(base, [79.0] * 5, "lower", 0.15)
    assert s["verdict"] == "flat"  # better everywhere, but by less than the spread
