"""The sweep invariant: MultiThresholdReplay == N ReplayDBTs.

The multi-threshold replay must be event-for-event equivalent to running
an independent :class:`ReplayDBT` per threshold: identical snapshots,
freeze steps, regions and optimisation-event streams — for any CFG,
behaviour, threshold set and trigger policy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import ControlFlowGraph
from repro.dbt import DBTConfig, MultiThresholdReplay, ReplayDBT
from repro.profiles import snapshot_to_dict
from repro.stochastic import ProgramBehavior, steady, walk

SWEEP = [1, 3, 10, 50, 200, 10_000]


def _assert_equivalent(cfg, trace, config, thresholds):
    multi = MultiThresholdReplay(trace, cfg, thresholds,
                                 base_config=config).run()
    for t in dict.fromkeys(thresholds):
        single = ReplayDBT(trace, cfg, config.with_threshold(t)).run()
        state = multi.state(t)
        assert state.freeze_step == single.freeze_step, f"T={t}"
        assert state.optimized == single.optimized, f"T={t}"
        assert state.optimization_events == single.optimization_events, \
            f"T={t}"
        assert snapshot_to_dict(state.snapshot()) == \
            snapshot_to_dict(single.snapshot()), f"T={t}"


def test_equivalence_across_thresholds(nested_cfg, nested_behavior):
    trace = walk(nested_cfg, nested_behavior, 30_000, seed=13)
    config = DBTConfig(pool_trigger_size=3)
    _assert_equivalent(nested_cfg, trace, config, SWEEP)


@pytest.mark.parametrize("pool_size,register_twice", [
    (1, True), (2, True), (8, True), (4, False), (100, False),
])
def test_equivalence_across_trigger_policies(nested_cfg, nested_behavior,
                                             pool_size, register_twice):
    trace = walk(nested_cfg, nested_behavior, 20_000, seed=5)
    config = DBTConfig(pool_trigger_size=pool_size,
                       register_twice_triggers=register_twice)
    _assert_equivalent(nested_cfg, trace, config, [2, 20, 500])


@pytest.mark.parametrize("name", ["gzip", "mcf", "art"])
def test_equivalence_on_benchmarks(name):
    from repro.workloads import get_benchmark

    benchmark = get_benchmark(name).scaled(0.01)
    trace = benchmark.trace("ref")
    config = DBTConfig(pool_trigger_size=4)
    _assert_equivalent(benchmark.cfg, trace, config, [5, 50, 500, 5000])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000),
       p_inner=st.floats(0.5, 0.99),
       p_diamond=st.floats(0.05, 0.95))
def test_equivalence_randomised(seed, p_inner, p_diamond):
    cfg = ControlFlowGraph([
        (1,), (2,), (3, 4), (2,), (5, 6), (7,), (7,), (8, 1), ()])
    behavior = ProgramBehavior()
    behavior.set(2, steady(p_inner))
    behavior.set(4, steady(p_diamond))
    behavior.set(7, steady(0.001))
    trace = walk(cfg, behavior, 15_000, seed=seed)
    config = DBTConfig(pool_trigger_size=3)
    _assert_equivalent(cfg, trace, config, [1, 7, 30, 120, 800])


def test_duplicate_thresholds_collapse(nested_cfg, nested_behavior):
    trace = walk(nested_cfg, nested_behavior, 10_000, seed=1)
    multi = MultiThresholdReplay(trace, nested_cfg, [20, 20, 5, 20],
                                 base_config=DBTConfig(pool_trigger_size=3))
    assert multi.thresholds == [5, 20]
    assert len(multi.snapshots()) == 2


def test_run_is_idempotent(nested_cfg, nested_behavior):
    trace = walk(nested_cfg, nested_behavior, 10_000, seed=1)
    multi = MultiThresholdReplay(trace, nested_cfg, [5, 20],
                                 base_config=DBTConfig(pool_trigger_size=3))
    first = snapshot_to_dict(multi.state(20).snapshot())
    multi.run()  # second run must be a no-op
    assert snapshot_to_dict(multi.state(20).snapshot()) == first


def test_translation_map_matches_single_replay(nested_cfg,
                                               nested_behavior):
    trace = walk(nested_cfg, nested_behavior, 20_000, seed=3)
    config = DBTConfig(pool_trigger_size=3)
    multi = MultiThresholdReplay(trace, nested_cfg, [20],
                                 base_config=config).run()
    single = ReplayDBT(trace, nested_cfg, config.with_threshold(20))
    multi_map = multi.state(20).translation_map()
    single_map = single.translation_map()
    assert multi_map.internal_pairs == single_map.internal_pairs
    assert multi_map.tail_blocks == single_map.tail_blocks
    assert (multi_map.optimized_at == single_map.optimized_at).all()
    # Cached: the same object comes back on repeat calls.
    assert multi.state(20).translation_map() is multi_map
    assert single.translation_map() is single_map


def test_rejects_mismatched_cfg(nested_trace):
    small = ControlFlowGraph([(1,), ()])
    with pytest.raises(ValueError, match="disagree"):
        MultiThresholdReplay(nested_trace, small, [10])


def test_rejects_empty_sweep(nested_cfg, nested_trace):
    with pytest.raises(ValueError, match="at least one threshold"):
        MultiThresholdReplay(nested_trace, nested_cfg, [])
