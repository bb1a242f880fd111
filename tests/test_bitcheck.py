"""The record comparison of ``scripts/bitcheck.py``."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bitcheck.py"
_SPEC = importlib.util.spec_from_file_location("bitcheck", _PATH)
bitcheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bitcheck)
same = bitcheck.same


def stage_counts_class():
    """A fresh ``StageCounts``-like class, as each tree's copy of the
    package defines its own."""

    @dataclasses.dataclass(frozen=True)
    class StageCounts:
        newton_iters: int = 0
        cost_evals: int = 0

    return StageCounts


def test_arrays_compare_by_dtype_shape_and_bytes():
    a = np.array([0.0, 1.0])
    assert same(a, a.copy())
    assert not same(a, np.array([-0.0, 1.0]))      # equal values, other bits
    assert not same(a, a.astype(np.float32))
    assert not same(a, a.reshape(1, 2))
    assert not same(a, [0.0, 1.0])


def test_dataclasses_of_the_two_trees_compare_by_their_fields():
    base, change = stage_counts_class(), stage_counts_class()
    assert base is not change
    assert same(base(3, 4), change(3, 4))
    assert not same(base(3, 4), change(3, 5))
    assert same((base(1, 2), base(3, 4)), (change(1, 2), change(3, 4)))
    assert not same((base(1, 2),), (change(1, 2), change(3, 4)))

    @dataclasses.dataclass
    class EstimationResult:
        theta: np.ndarray
        stage3: object

    assert same(EstimationResult(np.zeros(2), base(3, 4)), EstimationResult(np.zeros(2), change(3, 4)))
    assert not same(EstimationResult(np.zeros(2), base(3, 4)), EstimationResult(np.ones(2), change(3, 4)))
    assert not same(EstimationResult(np.zeros(2), None), EstimationResult(np.zeros(2), change(3, 4)))
    assert not same(base(3, 4), (3, 4))


def test_errors_compare_by_type_name_and_message():
    base = type("RankDeficiencyError", (np.linalg.LinAlgError,), {})
    change = type("RankDeficiencyError", (np.linalg.LinAlgError,), {})
    assert same(base("rank deficient"), change("rank deficient"))
    assert not same(base("rank deficient"), change("not positive definite"))
    assert not same(ValueError("rank deficient"), change("rank deficient"))
    assert not same(change("rank deficient"), "rank deficient")


def test_everything_else_compares_by_type_and_value():
    assert same(1.5, 1.5) and not same(1.5, 1.5000000000000002)
    assert not same(1.5, np.float64(1.5))
    assert same(float("nan"), float("nan")) and same(-np.inf, -np.inf)
    assert same(True, True) and not same(True, np.True_)
    assert same(None, None) and not same(None, 0)
    assert same("stalled", "stalled") and not same("stalled", "")
    assert not same((1,), [1])
