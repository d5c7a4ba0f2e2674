"""Differential wall: the vector kernel must equal the scalar walker.

Every test here asserts the same contract from a different angle: for
the same (CFG, behaviour, seed), :class:`VecWalker` produces an event
stream byte-identical to :class:`CFGWalker` — same blocks, same branch
outcomes, same counter tables, same per-block event index, same replay
regions — regardless of chunk size or which vectorized fast path the
input happens to exercise.

The hypothesis tests fuzz arbitrary CFG shapes and behaviour mixes; the
named tests pin the structural edge cases (chunk boundaries at 1 /
prime / beyond the run length, warm-up expiry mid-chunk, phase changes
mid-window, single-successor cycles, immediate exits, start overrides).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import ControlFlowGraph
from repro.stochastic import (CFGWalker, ProgramBehavior, VecWalker,
                              assemble_trace, drifting,
                              numpy_uniform_stream, phased, record_trace,
                              steady, vec_walk, warmup)
from repro.stochastic.trace import EventIndexBuilder

# Chunk sizes straddling every interesting boundary: degenerate (1),
# prime (so chunk edges never align with loop periods), and larger than
# any run these tests record.
CHUNKS = (1, 13, 4096, 10**6)


def scalar_trace(cfg, behavior, steps, seed, start=None):
    return CFGWalker(cfg, behavior, seed=seed).run(steps, start=start)


def vector_trace(cfg, behavior, steps, seed, chunk, start=None):
    walker = VecWalker(cfg, behavior, seed=seed, chunk_steps=chunk)
    return walker.run(steps, start=start)


def assert_traces_equal(scalar, vector, label=""):
    """Events, counter tables and the per-block index must all agree."""
    assert scalar.num_steps == vector.num_steps, label
    np.testing.assert_array_equal(scalar.blocks, vector.blocks, label)
    np.testing.assert_array_equal(scalar.taken, vector.taken, label)
    np.testing.assert_array_equal(scalar.use_counts(), vector.use_counts())
    np.testing.assert_array_equal(scalar.taken_counts(),
                                  vector.taken_counts())
    se, ve = scalar.events(), vector.events()
    assert se.keys() == ve.keys()
    for block in se:
        np.testing.assert_array_equal(se[block].steps, ve[block].steps)
        np.testing.assert_array_equal(se[block].taken_prefix,
                                      ve[block].taken_prefix)


# ---------------------------------------------------------------------------
# RNG transplant: the foundation everything else rests on.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**31 - 1])
def test_numpy_stream_matches_python_random(seed):
    """Bulk numpy draws must equal random.Random(seed).random() exactly."""
    rng = random.Random(seed)
    expected = np.array([rng.random() for _ in range(1000)])
    stream = numpy_uniform_stream(seed)
    got = np.concatenate([stream.random_sample(n)
                          for n in (237, 1, 500, 262)])
    np.testing.assert_array_equal(expected, got)


def test_numpy_stream_chunking_is_invisible():
    """Any split of the stream yields the same doubles."""
    one_shot = numpy_uniform_stream(99).random_sample(512)
    stream = numpy_uniform_stream(99)
    dribbled = np.concatenate([stream.random_sample(1)
                               for _ in range(512)])
    np.testing.assert_array_equal(one_shot, dribbled)


# ---------------------------------------------------------------------------
# Hypothesis fuzz: arbitrary CFGs x behaviour mixes x chunkings.
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
def walk_case(draw):
    steps = draw(st.integers(min_value=0, max_value=500))
    cfg = draw(cfg_strategy())
    behavior = draw(behavior_strategy(cfg, steps))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    chunk = draw(st.sampled_from(CHUNKS))
    return cfg, behavior, steps, seed, chunk


@settings(max_examples=150, deadline=None)
@given(walk_case())
def test_fuzz_vector_equals_scalar(case):
    cfg, behavior, steps, seed, chunk = case
    scalar = scalar_trace(cfg, behavior, steps, seed)
    vector = vector_trace(cfg, behavior, steps, seed, chunk)
    assert_traces_equal(scalar, vector,
                        f"steps={steps} seed={seed} chunk={chunk}")


@settings(max_examples=40, deadline=None)
@given(walk_case(), st.integers(min_value=0, max_value=8))
def test_fuzz_start_override(case, start):
    cfg, behavior, steps, seed, _ = case
    if start >= cfg.num_nodes:
        start %= cfg.num_nodes
    scalar = scalar_trace(cfg, behavior, steps, seed, start=start)
    vector = vector_trace(cfg, behavior, steps, seed, 13, start=start)
    assert_traces_equal(scalar, vector, f"start={start}")


# ---------------------------------------------------------------------------
# Named edge cases the fuzz might only graze.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chunk", CHUNKS)
def test_nested_cfg_every_chunking(nested_cfg, nested_behavior, chunk):
    """The workhorse shape: nested loops + diamond, 50k steps."""
    scalar = scalar_trace(nested_cfg, nested_behavior, 50_000, seed=11)
    vector = vector_trace(nested_cfg, nested_behavior, 50_000, 11, chunk)
    assert_traces_equal(scalar, vector, f"chunk={chunk}")


@pytest.mark.parametrize("make", [
    lambda: steady(0.9),
    lambda: steady(0.0),
    lambda: steady(1.0),
    lambda: phased([(0.25, 0.95), (0.5, 0.1), (0.25, 0.7)], 2_000),
    lambda: warmup(uses=17, p_init=1.0, p_steady=0.3),
    lambda: warmup(uses=0, p_init=0.0, p_steady=0.8),
    lambda: drifting(0.99, 0.01, 2_000, segments=7),
])
def test_each_behavior_kind_on_hot_self_loop(make):
    """A hot self-loop hits the simple-window fast path for every kind."""
    cfg = ControlFlowGraph([(1,), (1, 2), ()])
    behavior = ProgramBehavior()
    behavior.set(1, make())
    for chunk in CHUNKS:
        scalar = scalar_trace(cfg, behavior, 2_000, seed=3)
        vector = vector_trace(cfg, behavior, 2_000, 3, chunk)
        assert_traces_equal(scalar, vector, f"chunk={chunk}")


def test_multi_block_loop_body_general_window():
    """A loop whose body spans several blocks exercises the general
    (plen > 1) window path with a mid-body conditional."""
    cfg = ControlFlowGraph([
        (1,),        # 0 entry
        (2, 4),      # 1 header: fall -> body, taken -> out
        (3, 1),      # 2 body branch: taken -> back to header early
        (1,),        # 3 tail -> header
        (),          # 4 exit
    ])
    behavior = ProgramBehavior()
    behavior.set(1, steady(0.002))
    behavior.set(2, steady(0.3))
    for chunk in (1, 13, 4096):
        scalar = scalar_trace(cfg, behavior, 30_000, seed=5)
        vector = vector_trace(cfg, behavior, 30_000, 5, chunk)
        assert_traces_equal(scalar, vector, f"chunk={chunk}")


def test_phase_change_inside_window():
    """A phase boundary landing mid-window must split the window."""
    cfg = ControlFlowGraph([(0, 1), ()])
    behavior = ProgramBehavior()
    behavior.set(0, phased([(0.5, 0.01), (0.5, 0.99)], 1_000))
    for chunk in CHUNKS:
        scalar = scalar_trace(cfg, behavior, 1_000, seed=21)
        vector = vector_trace(cfg, behavior, 1_000, 21, chunk)
        assert_traces_equal(scalar, vector, f"chunk={chunk}")


def test_degenerate_shapes():
    """max_steps 0 and 1, immediate exits, and pure cycles."""
    exit_only = ControlFlowGraph([()])
    chain_to_exit = ControlFlowGraph([(1,), (2,), ()])
    pure_cycle = ControlFlowGraph([(1,), (2,), (0,)])
    empty = ProgramBehavior()
    for cfg in (exit_only, chain_to_exit, pure_cycle):
        for steps in (0, 1, 2, 7, 1_000):
            scalar = scalar_trace(cfg, empty, steps, seed=0)
            for chunk in CHUNKS:
                vector = vector_trace(cfg, empty, steps, 0, chunk)
                assert_traces_equal(scalar, vector,
                                    f"steps={steps} chunk={chunk}")


def test_vec_walk_convenience_matches_walk():
    cfg = ControlFlowGraph([(0, 1), ()])
    behavior = ProgramBehavior()
    behavior.set(0, steady(0.7))
    scalar = scalar_trace(cfg, behavior, 500, seed=9)
    vector = vec_walk(cfg, behavior, max_steps=500, seed=9)
    assert_traces_equal(scalar, vector)


# ---------------------------------------------------------------------------
# Streaming consumers: batches, incremental index, trace recording.
# ---------------------------------------------------------------------------

def test_streamed_batches_reassemble_exactly(nested_cfg, nested_behavior):
    """Concatenated run_batches output == run() == scalar oracle, and
    batch boundaries cover the trace with no gaps or overlaps."""
    walker = VecWalker(nested_cfg, nested_behavior, seed=4, chunk_steps=777)
    batches = list(walker.run_batches(40_000))
    scalar = scalar_trace(nested_cfg, nested_behavior, 40_000, seed=4)

    pos = 0
    for batch in batches:
        np.testing.assert_array_equal(
            scalar.blocks[pos:pos + len(batch.blocks)], batch.blocks)
        np.testing.assert_array_equal(
            scalar.taken[pos:pos + len(batch.taken)], batch.taken)
        pos += len(batch.blocks)
    assert pos == scalar.num_steps


def test_incremental_index_equals_lazy_index(nested_cfg, nested_behavior):
    """EventIndexBuilder fed chunk-by-chunk == trace.events() built lazily."""
    walker = VecWalker(nested_cfg, nested_behavior, seed=6, chunk_steps=997)
    builder = EventIndexBuilder(nested_cfg.num_nodes)
    for batch in walker.run_batches(30_000):
        builder.add_batch(batch)
    incremental = builder.finalize()

    lazy = scalar_trace(nested_cfg, nested_behavior, 30_000, seed=6).events()
    assert incremental.keys() == lazy.keys()
    for block in lazy:
        np.testing.assert_array_equal(incremental[block].steps,
                                      lazy[block].steps)
        np.testing.assert_array_equal(incremental[block].taken_prefix,
                                      lazy[block].taken_prefix)


def test_assemble_trace_prebuilt_index_is_attached(nested_cfg,
                                                   nested_behavior):
    walker = VecWalker(nested_cfg, nested_behavior, seed=2, chunk_steps=997)
    trace = assemble_trace(walker.run_batches(20_000), nested_cfg.num_nodes,
                           build_index=True)
    assert trace._events is not None  # index arrived pre-built
    lazy = scalar_trace(nested_cfg, nested_behavior, 20_000, seed=2)
    assert_traces_equal(lazy, trace)


def test_record_trace_equals_scalar_walker(nested_cfg, nested_behavior):
    """The study's recording entry point: the scalar walker's trace, with
    its event index already attached."""
    trace = record_trace(nested_cfg, nested_behavior, 30_000, seed=8)
    assert trace._events is not None
    scalar = scalar_trace(nested_cfg, nested_behavior, 30_000, seed=8)
    assert_traces_equal(scalar, trace)
