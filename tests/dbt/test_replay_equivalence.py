"""The central DBT invariant: trace replay == live translation.

The fast :class:`ReplayDBT` must produce byte-identical snapshots to the
live :class:`TwoPhaseDBT` fed the same trace, for any CFG, behaviour,
threshold and trigger policy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import ControlFlowGraph
from repro.dbt import DBTConfig, ReplayDBT, TwoPhaseDBT
from repro.profiles import snapshot_to_dict
from repro.stochastic import ProgramBehavior, steady, walk

from ..reference import replay_trace


def _assert_equivalent(cfg, trace, config):
    live = TwoPhaseDBT(cfg, config)
    replay_trace(trace, live)
    live_snapshot = snapshot_to_dict(live.snapshot())
    replay_snapshot = snapshot_to_dict(
        ReplayDBT(trace, cfg, config).snapshot())
    assert live_snapshot == replay_snapshot


@pytest.mark.parametrize("threshold", [1, 3, 10, 50, 200, 10_000])
def test_equivalence_across_thresholds(nested_cfg, nested_behavior,
                                       threshold):
    trace = walk(nested_cfg, nested_behavior, 30_000, seed=13)
    config = DBTConfig(threshold=threshold, pool_trigger_size=3)
    _assert_equivalent(nested_cfg, trace, config)


@pytest.mark.parametrize("pool_size,register_twice", [
    (1, True), (2, True), (8, True), (4, False), (100, False),
])
def test_equivalence_across_trigger_policies(nested_cfg, nested_behavior,
                                             pool_size, register_twice):
    trace = walk(nested_cfg, nested_behavior, 20_000, seed=5)
    config = DBTConfig(threshold=20, pool_trigger_size=pool_size,
                       register_twice_triggers=register_twice)
    _assert_equivalent(nested_cfg, trace, config)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000),
       threshold=st.integers(1, 300),
       p_inner=st.floats(0.5, 0.99),
       p_diamond=st.floats(0.05, 0.95))
def test_equivalence_randomised(seed, threshold, p_inner, p_diamond):
    cfg = ControlFlowGraph([
        (1,), (2,), (3, 4), (2,), (5, 6), (7,), (7,), (8, 1), ()])
    behavior = ProgramBehavior()
    behavior.set(2, steady(p_inner))
    behavior.set(4, steady(p_diamond))
    behavior.set(7, steady(0.001))
    trace = walk(cfg, behavior, 15_000, seed=seed)
    config = DBTConfig(threshold=threshold, pool_trigger_size=3)
    _assert_equivalent(cfg, trace, config)


def test_replay_is_idempotent(nested_cfg, nested_behavior):
    trace = walk(nested_cfg, nested_behavior, 10_000, seed=1)
    replay = ReplayDBT(trace, nested_cfg, DBTConfig(threshold=20,
                                                    pool_trigger_size=3))
    first = snapshot_to_dict(replay.snapshot())
    second = snapshot_to_dict(replay.snapshot())
    assert first == second


def test_replay_rejects_mismatched_cfg(nested_trace):
    small = ControlFlowGraph([(1,), ()])
    with pytest.raises(ValueError, match="disagree"):
        ReplayDBT(nested_trace, small, DBTConfig())
