"""Differential wall: the batched replay sweep must equal the reference
heap walk.

Every test asserts the same contract from a different angle: for the
same (trace, CFG, DBT config), the batched windowed sweep — through
``run_batched_replay`` at any window target, ``ReplayDBT`` and
``MultiThresholdReplay`` — produces *identical* pipeline outcomes to the
reference heap walk of ``tests/reference.py``: same freeze steps, same
regions, same optimization events, same translation maps — regardless
of window chunking, trigger sizing or the register-twice rule.

The hypothesis tests fuzz arbitrary CFG shapes x behaviour mixes x
thresholds x chunkings; the named tests pin the structural edge cases
(threshold 1, single-block traces, all-frozen blocks, trigger size 1,
empty traces).
"""

from contextlib import contextmanager
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import ControlFlowGraph
from repro.dbt import DBTConfig, MultiThresholdReplay, ReplayDBT
from repro.dbt.batchreplay import run_batched_replay
from repro.stochastic import (ProgramBehavior, drifting, phased, steady,
                              walk, warmup)

from ..reference import reference_replay

# Window sizes straddling every interesting boundary: degenerate (1,
# every window holds one registration per live block), small primes (so
# window edges never align with registration periods), the default, and
# effectively unbounded.
CHUNKS = (1, 7, 251, 2048, 10**6)


def _replay_fingerprint(dbt):
    """Everything a consumer can observe about a finished replay."""
    tmap = dbt.translation_map()
    return (
        sorted(dbt.freeze_step.items()),
        sorted(dbt.optimized),
        [(r.region_id, tuple(r.members), r.formed_at) for r in dbt.regions],
        [(now, tuple(blocks)) for now, blocks in dbt.optimization_events],
        tmap.optimized_at.tolist(),
        sorted(tmap.internal_pairs),
        sorted(tmap.tail_blocks),
        list(tmap.translated_blocks),
        tmap.blocks_translated,
        tmap.regions_formed,
    )


@contextmanager
def _window_target(chunk):
    """Production replays inside the block sweep ``chunk``-event windows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.dbt.replay.run_batched_replay",
                   partial(run_batched_replay, chunk=chunk))
        yield


def _pair(trace, cfg, config, chunk):
    """(reference, batched at ``chunk``) replays of the same inputs."""
    oracle = reference_replay(trace, cfg, config)
    with _window_target(chunk):
        batched = ReplayDBT(trace, cfg, config).run()
    return oracle, batched


# ---------------------------------------------------------------------------
# Hypothesis fuzz: arbitrary CFGs x behaviours x thresholds x chunkings.
# ---------------------------------------------------------------------------

@st.composite
def cfg_strategy(draw):
    """Arbitrary small CFGs: 0/1/2 successors per node, cycles allowed."""
    n = draw(st.integers(min_value=1, max_value=9))
    node = st.integers(min_value=0, max_value=n - 1)
    succs = []
    for _ in range(n):
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            succs.append(())
        elif kind <= 2:  # bias toward straight-line chains
            succs.append((draw(node),))
        else:
            succs.append((draw(node), draw(node)))
    return ControlFlowGraph(succs)


@st.composite
def behavior_strategy(draw, cfg, steps):
    """A behaviour for every 2-successor node, mixing all four kinds."""
    prob = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    behavior = ProgramBehavior()
    nominal = max(steps, 1)
    for block in range(cfg.num_nodes):
        if len(cfg.successors(block)) != 2:
            continue
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            behavior.set(block, steady(draw(prob)))
        elif kind == 1:
            split = draw(st.floats(min_value=0.1, max_value=0.9))
            behavior.set(block, phased([(split, draw(prob)),
                                        (1.0 - split, draw(prob))],
                                       nominal))
        elif kind == 2:
            behavior.set(block, warmup(draw(st.integers(0, 40)),
                                       draw(prob), draw(prob)))
        else:
            behavior.set(block, drifting(draw(prob), draw(prob), nominal,
                                         segments=draw(st.integers(1, 5))))
    return behavior


@st.composite
def replay_case(draw):
    steps = draw(st.integers(min_value=0, max_value=600))
    cfg = draw(cfg_strategy())
    behavior = draw(behavior_strategy(cfg, steps))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    trace = walk(cfg, behavior, max_steps=steps, seed=seed)
    config = DBTConfig(
        threshold=draw(st.integers(min_value=1, max_value=40)),
        pool_trigger_size=draw(st.integers(min_value=1, max_value=8)),
        register_twice_triggers=draw(st.booleans()))
    chunk = draw(st.sampled_from(CHUNKS))
    return trace, cfg, config, chunk


@settings(max_examples=120, deadline=None)
@given(replay_case())
def test_fuzz_batched_equals_scalar(case):
    trace, cfg, config, chunk = case
    oracle, batched = _pair(trace, cfg, config, chunk)
    assert _replay_fingerprint(oracle) == _replay_fingerprint(batched), \
        f"threshold={config.threshold} chunk={chunk}"


@settings(max_examples=40, deadline=None)
@given(replay_case(), st.lists(st.integers(min_value=1, max_value=60),
                               min_size=1, max_size=5))
def test_fuzz_multireplay_batched_equals_scalar(case, thresholds):
    """Every multireplay state (windows at ``chunk``) == the reference
    replay at its threshold."""
    trace, cfg, config, chunk = case
    with _window_target(chunk):
        batched = MultiThresholdReplay(trace, cfg, thresholds,
                                       base_config=config).run()
    for t in batched.thresholds:
        oracle = reference_replay(trace, cfg, config.with_threshold(t))
        assert _replay_fingerprint(oracle) == \
            _replay_fingerprint(batched.state(t)), f"t={t} chunk={chunk}"


@settings(max_examples=30, deadline=None)
@given(replay_case())
def test_fuzz_multireplay_state_equals_single_replay(case):
    """Production ReplayDBT runs == reference replays, at 1, T and 3T."""
    trace, cfg, config, _ = case
    for t in sorted({1, config.threshold, 3 * config.threshold}):
        single = ReplayDBT(trace, cfg, config.with_threshold(t)).run()
        oracle = reference_replay(trace, cfg, config.with_threshold(t))
        assert _replay_fingerprint(single) == \
            _replay_fingerprint(oracle), f"t={t}"


# ---------------------------------------------------------------------------
# Named edge cases the fuzz might only graze.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chunk", CHUNKS)
def test_nested_cfg_every_chunking(nested_cfg, nested_trace, chunk):
    """The workhorse shape at a paper-scale threshold sweep."""
    for threshold in (1, 5, 50, 500):
        config = DBTConfig(threshold=threshold)
        oracle, batched = _pair(nested_trace, nested_cfg, config, chunk)
        assert _replay_fingerprint(oracle) == _replay_fingerprint(batched), \
            f"threshold={threshold} chunk={chunk}"


def test_threshold_one_registers_every_execution(nested_cfg, nested_trace):
    """T=1 makes every step a registration — the densest stream."""
    config = DBTConfig(threshold=1)
    for chunk in CHUNKS:
        oracle, batched = _pair(nested_trace, nested_cfg, config, chunk)
        assert _replay_fingerprint(oracle) == _replay_fingerprint(batched)


def test_single_block_trace():
    """One self-looping block: the pool can never fill beyond one."""
    cfg = ControlFlowGraph([(0,)])
    trace = walk(cfg, ProgramBehavior(), max_steps=500, seed=3)
    for trigger_size in (1, 2, 12):
        for twice in (True, False):
            config = DBTConfig(threshold=5,
                               pool_trigger_size=trigger_size,
                               register_twice_triggers=twice)
            for chunk in (1, 2048):
                oracle, batched = _pair(trace, cfg, config, chunk)
                assert _replay_fingerprint(oracle) == \
                    _replay_fingerprint(batched), \
                    f"trigger={trigger_size} twice={twice} chunk={chunk}"


def test_all_blocks_freeze(nested_cfg, nested_behavior):
    """A hot trace at a tiny threshold freezes every block; the sweep
    must terminate early instead of materializing dead registrations."""
    trace = walk(nested_cfg, nested_behavior, max_steps=60_000, seed=13)
    config = DBTConfig(threshold=2, pool_trigger_size=2)
    oracle, batched = _pair(trace, nested_cfg, config, 64)
    assert _replay_fingerprint(oracle) == _replay_fingerprint(batched)
    assert set(batched.freeze_step) == set(batched.optimized)
    assert len(batched.optimized) > 0


def test_trigger_size_one_fires_immediately(nested_cfg, nested_trace):
    """pool_trigger_size=1: every fresh registration triggers."""
    config = DBTConfig(threshold=10, pool_trigger_size=1)
    for chunk in CHUNKS:
        oracle, batched = _pair(nested_trace, nested_cfg, config, chunk)
        assert _replay_fingerprint(oracle) == _replay_fingerprint(batched)


def test_register_twice_disabled(nested_cfg, nested_trace):
    """With the dup rule off, only a full pool triggers."""
    config = DBTConfig(threshold=10, pool_trigger_size=4,
                       register_twice_triggers=False)
    for chunk in CHUNKS:
        oracle, batched = _pair(nested_trace, nested_cfg, config, chunk)
        assert _replay_fingerprint(oracle) == _replay_fingerprint(batched)


def test_empty_and_tiny_traces():
    """Zero and near-zero steps: no registrations at all."""
    cfg = ControlFlowGraph([(1,), (2,), ()])
    for steps in (0, 1, 2):
        trace = walk(cfg, ProgramBehavior(), max_steps=steps, seed=0)
        for threshold in (1, 2, 100):
            config = DBTConfig(threshold=threshold)
            oracle, batched = _pair(trace, cfg, config, 1)
            assert _replay_fingerprint(oracle) == \
                _replay_fingerprint(batched), \
                f"steps={steps} threshold={threshold}"


def test_snapshots_identical_across_kernels(nested_cfg, nested_trace):
    """The INIP(T) snapshot — the paper-facing artefact — of the
    production ReplayDBT equals the reference replay's."""
    config = DBTConfig(threshold=50)
    oracle = reference_replay(nested_trace, nested_cfg, config)
    batched = ReplayDBT(nested_trace, nested_cfg, config)
    a, b = oracle.snapshot(), batched.snapshot()
    assert a.blocks.keys() == b.blocks.keys()
    for block in a.blocks:
        pa, pb = a.blocks[block], b.blocks[block]
        assert (pa.use, pa.taken, pa.frozen_at) == \
            (pb.use, pb.taken, pb.frozen_at)
    assert a.profiling_ops == b.profiling_ops

