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
from repro.obs.registry import counter_value
from repro.stochastic import (CFGWalker, ProgramBehavior, VecWalker,
                              drifting, numpy_uniform_stream, phased,
                              record_trace, steady, vec_walk, warmup)
from repro.stochastic import vecwalker

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
# Streaming consumers: batches and trace recording.
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


def test_record_trace_equals_scalar_walker(nested_cfg, nested_behavior):
    """The study's recording entry point: the scalar walker's trace, with
    the event index left for first use."""
    trace = record_trace(nested_cfg, nested_behavior, 30_000, seed=8)
    assert trace._events is None  # built lazily, not while recording
    scalar = scalar_trace(nested_cfg, nested_behavior, 30_000, seed=8)
    assert_traces_equal(scalar, trace)
    assert trace._events is not None


# ---------------------------------------------------------------------------
# Chunk decode: the lazy float view of the uniform stream and the
# ragged segment gather.
# ---------------------------------------------------------------------------

def decisions():
    return (counter_value("kernel.vector.decisions.window"),
            counter_value("kernel.vector.decisions.slow"))


@pytest.mark.parametrize("draw,float_slice", [(8, 3), (16, 5), (64, 7)])
def test_slow_decisions_after_window_refill(nested_cfg, nested_behavior,
                                            monkeypatch, draw, float_slice):
    """A tiny uniform buffer makes nearly every inner-loop window refill
    (concatenate) ``U``; the outer diamond and latch then decide on the
    slow path straight off the refilled buffer's float view."""
    monkeypatch.setattr(vecwalker, "_DRAW", draw)
    monkeypatch.setattr(vecwalker, "_FLOAT_SLICE", float_slice)
    window0, slow0 = decisions()
    vector = vector_trace(nested_cfg, nested_behavior, 20_000, 12, 4096)
    window1, slow1 = decisions()
    assert window1 > window0 and slow1 > slow0  # both paths ran
    scalar = scalar_trace(nested_cfg, nested_behavior, 20_000, seed=12)
    assert_traces_equal(scalar, vector)


def slow_only_cfg():
    """A loop of two splits that never exits and is never window-eligible
    (split B's arms do not reconverge on one branch), so every decision
    takes the per-decision path."""
    cfg = ControlFlowGraph([
        (1,),        # 0 entry
        (2, 3),      # 1 split A
        (4,),        # 2
        (4,),        # 3
        (5, 6),      # 4 split B
        (7,),        # 5
        (1, 8),      # 6 latch: taken -> loop, fall -> exit
        (1,),        # 7 back to A without passing the latch
        (),          # 8 exit
    ])
    behavior = ProgramBehavior()
    behavior.set(1, steady(0.5))
    behavior.set(4, steady(0.4))
    behavior.set(6, steady(1.0))
    return cfg, behavior


@pytest.mark.parametrize("draw,float_slice", [
    (vecwalker._DRAW, vecwalker._FLOAT_SLICE),  # the shipped sizes
    (50, 7),     # slices straddle each refill unevenly
    (20, 20),    # a slice ends exactly on each refill
    (13, 64),    # a slice is clipped by the end of the buffer
])
def test_slow_run_crosses_float_slices_and_refills(monkeypatch, draw,
                                                   float_slice):
    cfg, behavior = slow_only_cfg()
    monkeypatch.setattr(vecwalker, "_DRAW", draw)
    monkeypatch.setattr(vecwalker, "_FLOAT_SLICE", float_slice)
    steps = 8 * vecwalker._DRAW + 10_000  # ~3 decisions per 8 steps
    window0, slow0 = decisions()
    vector = vector_trace(cfg, behavior, steps, 31, 4096)
    window1, slow1 = decisions()
    assert window1 == window0  # no window ever ran
    assert slow1 - slow0 > 2 * draw + 2 * float_slice
    assert_traces_equal(scalar_trace(cfg, behavior, steps, seed=31),
                        vector)


def test_one_step_chunks_with_tiny_buffers(nested_cfg, nested_behavior,
                                           monkeypatch):
    """``chunk_steps=1``: every window and decision seals its own batch."""
    monkeypatch.setattr(vecwalker, "_DRAW", 16)
    monkeypatch.setattr(vecwalker, "_FLOAT_SLICE", 3)
    walker = VecWalker(nested_cfg, nested_behavior, seed=5, chunk_steps=1)
    batches = list(walker.run_batches(5_000))
    assert len(batches) > 300  # one per slow decision or window
    scalar = scalar_trace(nested_cfg, nested_behavior, 5_000, seed=5)
    np.testing.assert_array_equal(
        np.concatenate([b.blocks for b in batches]), scalar.blocks)
    np.testing.assert_array_equal(
        np.concatenate([b.taken for b in batches]), scalar.taken)
    assert_traces_equal(scalar, walker.run(5_000))


def long_segment_cfg():
    """Segments of 5 and 4 blocks, so budgets cut them at every offset."""
    cfg = ControlFlowGraph([
        (1,), (2,), (3,), (4,),   # 0..3 straight line
        (5, 9),                   # 4 branch
        (6,), (7,), (8,),         # 5..7 straight line
        (1, 10),                  # 8 latch
        (6,),                     # 9 joins mid-chain
        (),                       # 10 exit
    ])
    behavior = ProgramBehavior()
    behavior.set(4, steady(0.7))
    behavior.set(8, steady(0.98))
    return cfg, behavior


@pytest.mark.parametrize("steps", range(1, 40))
def test_budget_truncates_mid_segment(steps):
    """The decode's tail: a budget ending inside a segment emits only its
    prefix, with no outcome for the unreached terminal branch."""
    cfg, behavior = long_segment_cfg()
    for chunk in (1, 4, 4096):
        assert_traces_equal(scalar_trace(cfg, behavior, steps, seed=2),
                            vector_trace(cfg, behavior, steps, 2, chunk),
                            f"steps={steps} chunk={chunk}")


def test_segment_offsets_jump_backwards():
    """Branches into lower-numbered segment starts make consecutive
    decoded segments move *backwards* in the flat segment table, so the
    gather's jumps are negative as often as positive."""
    cfg = ControlFlowGraph([
        (9,),          # 0 entry -> high-numbered start
        (2, 6),        # 1 branch
        (3,),          # 2
        (1, 7),        # 3 branch: back to 1 or forward to 7
        (1,),          # 4
        (4,),          # 5 -> 4 -> 1: a 3-block run walking downwards
        (5, 8),        # 6 branch
        (3,),          # 7
        (1, 10),       # 8 branch: back to 1 or out
        (8,),          # 9
        (),            # 10 exit
    ])
    behavior = ProgramBehavior()
    behavior.set(1, steady(0.5))
    behavior.set(3, steady(0.5))
    behavior.set(6, steady(0.6))
    behavior.set(8, steady(0.995))
    vec = VecWalker(cfg, behavior, seed=4)
    offsets = vec._seg_off_np
    for chunk in CHUNKS:
        vector = vector_trace(cfg, behavior, 20_000, 4, chunk)
        scalar = scalar_trace(cfg, behavior, 20_000, seed=4)
        assert_traces_equal(scalar, vector, f"chunk={chunk}")
    # The walk really does step backwards through the flat table.
    starts = np.flatnonzero(scalar.taken != -1) + 1
    nxt = scalar.blocks[starts[:-1]]
    assert (np.diff(offsets[nxt]) < 0).any()
