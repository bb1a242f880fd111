"""The verdict ``scripts/bench_pairs.py`` gives on one metric's pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]   # IQR 2.0


def test_a_clear_gain_is_a_claim():
    v = verdict(BASE, [b + 10.0 for b in BASE], "higher", 0.25)
    assert v == {"change_better_pairs": 10, "claim_met": True, "beyond_bound": False}


def test_nine_of_ten_pairs_suffice_and_eight_do_not():
    change = [b + 10.0 for b in BASE]
    change[0] = BASE[0]                         # a tie counts for neither side
    assert verdict(BASE, change, "higher", 0.25)["claim_met"]
    change[1] = BASE[1] - 1.0
    v = verdict(BASE, change, "higher", 0.25)
    assert v["change_better_pairs"] == 8 and not v["claim_met"]


def test_a_gain_within_the_base_spread_is_no_claim():
    v = verdict(BASE, [b + 1.5 for b in BASE], "higher", 0.25)
    assert v["change_better_pairs"] == 10 and not v["claim_met"]


@pytest.mark.parametrize(
    "better, scale, beyond",
    [("higher", 0.76, False), ("higher", 0.74, True), ("lower", 1.24, False), ("lower", 1.26, True)],
)
def test_the_bound_is_relative_to_the_base_median(better, scale, beyond):
    v = verdict(BASE, [b * scale for b in BASE], better, 0.25)
    assert v["beyond_bound"] is beyond and not v["claim_met"]


def test_lower_is_better_for_times():
    v = verdict(BASE, [b - 10.0 for b in BASE], "lower", 0.25)
    assert v == {"change_better_pairs": 10, "claim_met": True, "beyond_bound": False}
