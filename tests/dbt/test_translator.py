"""Live two-phase-translator behaviour tests."""

import pytest

from repro.dbt import DBTConfig, TwoPhaseDBT
from repro.stochastic import walk, steady, ProgramBehavior

from ..reference import replay_trace


def _run_live(cfg, trace, **config_kwargs):
    dbt = TwoPhaseDBT(cfg, DBTConfig(**config_kwargs))
    replay_trace(trace, dbt)
    return dbt


def test_snapshot_counts_match_run(nested_cfg, nested_trace):
    dbt = _run_live(nested_cfg, nested_trace, threshold=10**9)
    snapshot = dbt.snapshot()
    # threshold never reached: counts equal whole-trace counts.
    use = nested_trace.use_counts()
    taken = nested_trace.taken_counts()
    for block, profile in snapshot.blocks.items():
        assert profile.use == use[block]
        assert profile.taken == taken[block]
        assert profile.frozen_at is None
    assert not snapshot.regions


def test_optimization_freezes_hot_blocks(nested_cfg, nested_trace):
    dbt = _run_live(nested_cfg, nested_trace, threshold=50,
                    pool_trigger_size=3)
    snapshot = dbt.snapshot()
    assert snapshot.regions
    optimized = snapshot.optimized_blocks()
    assert optimized  # something got optimised
    for block in optimized:
        profile = snapshot.blocks[block]
        assert profile.is_frozen
        # frozen counts never exceed whole-run counts
        assert profile.use <= nested_trace.use_counts()[block]


def test_seed_blocks_freeze_between_t_and_2t(nested_cfg, nested_trace):
    threshold = 50
    dbt = _run_live(nested_cfg, nested_trace, threshold=threshold,
                    pool_trigger_size=3)
    snapshot = dbt.snapshot()
    for step, blocks in dbt.optimization_events:
        for block in blocks:
            profile = snapshot.blocks[block]
            if profile.use >= threshold:  # seeds and hot members
                assert profile.use < 2 * threshold + 1


def test_profiling_ops_do_not_grow_after_freeze(nested_cfg,
                                                nested_behavior):
    # With a tiny threshold everything freezes early, so total profiling
    # operations must be far below the whole-run ops.
    trace = walk(nested_cfg, nested_behavior, 50_000, seed=3)
    small = _run_live(nested_cfg, trace, threshold=5,
                      pool_trigger_size=3).snapshot()
    unopt = _run_live(nested_cfg, trace, threshold=10**9).snapshot()
    assert small.profiling_ops < unopt.profiling_ops / 50


def test_snapshot_label_and_metadata(nested_cfg, nested_trace):
    dbt = _run_live(nested_cfg, nested_trace, threshold=20)
    snapshot = dbt.snapshot(input_name="ref")
    assert snapshot.label == "INIP(20)"
    assert snapshot.threshold == 20
    assert snapshot.input_name == "ref"
    assert snapshot.total_steps == nested_trace.num_steps
    snapshot.validate()


def test_no_reoptimization_of_frozen_blocks(nested_cfg, nested_trace):
    dbt = _run_live(nested_cfg, nested_trace, threshold=10,
                    pool_trigger_size=2)
    seen = set()
    for _step, blocks in dbt.optimization_events:
        for block in blocks:
            assert block not in seen, "block frozen twice"
            seen.add(block)


def test_regions_validate(nested_cfg, nested_trace):
    dbt = _run_live(nested_cfg, nested_trace, threshold=25,
                    pool_trigger_size=3)
    for region in dbt.regions:
        region.validate()


def test_live_on_interpreter_events(loop_program):
    """The live DBT subscribes directly to the interpreter."""
    from repro.cfg import cfg_from_program
    from repro.interp import Interpreter

    cfg, _ = cfg_from_program(loop_program)
    dbt = TwoPhaseDBT(cfg, DBTConfig(threshold=2, pool_trigger_size=1))
    Interpreter(loop_program, listener=dbt).run()
    snapshot = dbt.snapshot()
    assert snapshot.total_steps == 7  # entry + 5 loop + done
    assert snapshot.regions  # the loop got hot enough to optimise
