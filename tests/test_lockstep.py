"""The summary ``scripts/lockstep.py`` gives of its timed repetitions."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "lockstep.py"
_SPEC = importlib.util.spec_from_file_location("lockstep", _PATH)
lockstep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lockstep)
summarize = lockstep.summarize


def test_equal_trees_read_one():
    s = summarize({"sml": {"base": [1.0, 2.0, 3.0], "change": [1.0, 2.0, 3.0]}}, {"sml": 100})
    assert s["sml"]["ratio"] == 1.0
    assert s["sml"]["rep_ratio"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert s["sml"]["base_ms"] == s["sml"]["change_ms"] == pytest.approx(20.0)   # 6 s over 300 estimates


def test_milliseconds_are_per_estimate_over_all_repetitions():
    # two groups, the second with two estimates per batch
    cpu = {
        "sml": {"base": [0.5, 0.5], "change": [0.55, 0.55]},
        "alt": {"base": [1.0, 1.0], "change": [1.0, 1.0]},
    }
    s = summarize(cpu, {"sml": 50, "alt": 100})
    assert s["sml"]["base_ms"] == pytest.approx(10.0) and s["sml"]["change_ms"] == pytest.approx(11.0)
    assert s["sml"]["ratio"] == pytest.approx(1.1)
    assert s["alt"]["base_ms"] == pytest.approx(10.0) and s["alt"]["ratio"] == 1.0


def test_the_ratio_pools_the_repetitions_and_the_quartiles_do_not():
    # a long repetition weighs more in the pooled ratio than in the median
    s = summarize({"alt": {"base": [1.0, 3.0], "change": [2.0, 3.0]}}, {"alt": 10})
    assert s["alt"]["ratio"] == pytest.approx(1.25)
    assert s["alt"]["rep_ratio"] == pytest.approx({"median": 1.5, "q1": 1.25, "q3": 1.75})


def test_one_repetition_is_its_own_quartiles():
    s = summarize({"sml": {"base": [2.0], "change": [2.1]}}, {"sml": 10})
    assert s["sml"]["rep_ratio"] == pytest.approx({"median": 1.05, "q1": 1.05, "q3": 1.05})


def test_three_groups_are_summarized_apart():
    # the sweep group's repetitions are rounds of 20 estimates each
    cpu = {
        "sml": {"base": [1.0, 1.0], "change": [1.0, 1.0]},
        "alt": {"base": [2.0, 2.0], "change": [2.2, 2.2]},
        "sweep": {"base": [0.6, 0.4], "change": [0.45, 0.4]},
    }
    s = summarize(cpu, {"sml": 100, "alt": 200, "sweep": 20})
    assert list(s) == ["sml", "alt", "sweep"]
    assert s["sml"]["ratio"] == 1.0 and s["alt"]["ratio"] == pytest.approx(1.1)
    assert s["sweep"]["base_ms"] == pytest.approx(25.0) and s["sweep"]["change_ms"] == pytest.approx(21.25)
    assert s["sweep"]["ratio"] == pytest.approx(0.85)
    assert s["sweep"]["rep_ratio"] == pytest.approx({"median": 0.875, "q1": 0.8125, "q3": 0.9375})
