"""Threshold-sweep study-driver tests."""

import pytest

from repro.core import run_threshold_sweep
from repro.dbt import DBTConfig
from repro.stochastic import walk


@pytest.fixture
def small_study(nested_cfg, nested_behavior):
    ref = walk(nested_cfg, nested_behavior, 40_000, seed=1)
    train = walk(nested_cfg, nested_behavior, 15_000, seed=2)
    return run_threshold_sweep(
        "demo", nested_cfg, ref, train, thresholds=[5, 50, 500],
        base_config=DBTConfig(pool_trigger_size=3))


def test_structure(small_study):
    assert small_study.name == "demo"
    assert small_study.thresholds == [5, 50, 500]
    assert set(small_study.outcomes) == {5, 50, 500}
    assert small_study.avep.label == "AVEP"
    assert small_study.train_profile.input_name == "train"


def test_outcomes_have_comparisons(small_study):
    for threshold in small_study.thresholds:
        outcome = small_study.outcomes[threshold]
        assert outcome.threshold == threshold
        assert outcome.snapshot.threshold == threshold
        assert outcome.comparison.sd_bp is not None
        assert outcome.profiling_ops > 0


def test_profiling_ops_monotone_in_threshold(small_study):
    """Larger thresholds profile longer, so ops never decrease."""
    ops = [small_study.outcomes[t].profiling_ops
           for t in small_study.thresholds]
    assert ops == sorted(ops)


def test_ops_bounded_by_avep(small_study):
    for threshold in small_study.thresholds:
        assert small_study.outcomes[threshold].profiling_ops <= \
            small_study.avep.profiling_ops


def test_train_comparison_has_no_region_metrics(small_study):
    assert small_study.train_comparison.sd_cp is None
    assert small_study.train_comparison.sd_lp is None
    assert small_study.train_comparison.sd_bp is not None


def test_train_ops(small_study):
    assert small_study.train_ops == small_study.train_profile.profiling_ops
