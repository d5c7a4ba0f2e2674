"""Differential wall: the vector kernel must equal the scalar walker.

Every test here asserts the same contract from a different angle: for
the same (CFG, behaviour, seed), :class:`VecWalker` produces an event
stream byte-identical to :class:`CFGWalker` — same blocks, same branch
outcomes, same counter tables, same per-block event index, same replay
regions — regardless of the chunks the uniform stream is drawn in, and
of window and block sizes.

The hypothesis tests fuzz arbitrary CFG shapes and behaviour mixes; the
named tests pin the structural edge cases (uniforms drawn one at a
time, in prime chunks or in one chunk beyond the run length, phase
boundaries inside a lockstep block and every few steps, warm-up expiry
mid-window, budgets and sinks mid-window, single-successor cycles,
immediate exits, start overrides, one branch and hundreds of
branches).

The whole-run counts the walker tallies from its own decisions get the
same treatment: ``run``'s counts, the count-only ``count`` and a
``bincount`` of ``run``'s own arrays must all equal the scalar walker's
counters.

So does the decision log a recorded trace keeps instead of its steps,
at the end of the file: the event index built straight from the log
(before anything decodes the steps) must equal both the scalar walker's
index and :func:`reference.reference_events` of the decoded arrays, in
keys, order, values and dtypes, and the decoded arrays must equal the
scalar walker's.  That covers CFGs with join blocks (one block in
several segments), every kind of tail, and every benchmark's ref and
train walks.
"""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import ControlFlowGraph
from repro.obs.registry import counter_value
from repro.stochastic import (BranchBehavior, CFGWalker, Phase,
                              ProgramBehavior, VecWalker, drifting,
                              numpy_uniform_stream, phased, record_trace,
                              steady, warmup)
from repro.stochastic import vecwalker
from repro.stochastic.trace import step_dtype
from repro.workloads import all_benchmarks, get_benchmark

from ..reference import (reference_counts, reference_events, spelled_out,
                         walker_counts)

# Sizes of the chunks the walker draws its uniforms in (``_DRAW``),
# straddling every interesting boundary: degenerate (1, so every window
# refills its buffer), prime (so refills never align with loop periods
# or lockstep blocks), and larger than any run these tests record.
CHUNKS = (1, 13, 4096, 10**6)


def scalar_trace(cfg, behavior, steps, seed, start=None):
    return CFGWalker(cfg, behavior, seed=seed).run(steps, start=start)


def vector_trace(cfg, behavior, steps, seed, chunk, start=None):
    with mock.patch.object(vecwalker, "_DRAW", chunk):
        return VecWalker(cfg, behavior, seed=seed).run(steps, start=start)


def assert_traces_equal(scalar, vector, label=""):
    """Events, counter tables and the per-block index must all agree."""
    assert scalar.num_steps == vector.num_steps, label
    np.testing.assert_array_equal(scalar.blocks, vector.blocks, label)
    np.testing.assert_array_equal(scalar.taken, vector.taken, label)
    np.testing.assert_array_equal(scalar.use_counts(), vector.use_counts())
    np.testing.assert_array_equal(scalar.taken_counts(),
                                  vector.taken_counts())
    se, ve = spelled_out(scalar.events()), spelled_out(vector.events())
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
    """Arbitrary small CFGs: 0/1/2 successors per node, cycles allowed.

    Up to 24 nodes, so some draws hold more branches than the suite's
    largest CFG (17)."""
    n = draw(st.integers(min_value=1, max_value=24))
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
    # Up to 3000 steps: enough decisions to cross lockstep blocks and
    # the first window's size, and to grow the window.
    steps = draw(st.integers(min_value=0, max_value=3000))
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
@given(walk_case(), st.integers(min_value=0, max_value=23))
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
    """A hot self-loop (a one-branch FSM) runs in windows for every
    behaviour kind."""
    cfg = ControlFlowGraph([(1,), (1, 2), ()])
    behavior = ProgramBehavior()
    behavior.set(1, make())
    for chunk in CHUNKS:
        scalar = scalar_trace(cfg, behavior, 2_000, seed=3)
        vector = vector_trace(cfg, behavior, 2_000, 3, chunk)
        assert_traces_equal(scalar, vector, f"chunk={chunk}")


def test_multi_block_loop_body_general_window():
    """A loop whose body spans several blocks, with a mid-body
    conditional that skips the tail: segments of different lengths
    inside one window."""
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


# ---------------------------------------------------------------------------
# Trace recording.
# ---------------------------------------------------------------------------

def test_record_trace_equals_scalar_walker(nested_cfg, nested_behavior):
    """The study's recording entry point: the scalar walker's trace, with
    the event index left for first use."""
    trace = record_trace(nested_cfg, nested_behavior, 30_000, seed=8)
    assert trace._events is None  # built lazily, not while recording
    scalar = scalar_trace(nested_cfg, nested_behavior, 30_000, seed=8)
    assert_traces_equal(scalar, trace)
    assert trace._events is not None


# ---------------------------------------------------------------------------
# Refills of the uniform buffer, and phase boundaries every few steps.
# ---------------------------------------------------------------------------

def windows():
    return counter_value("kernel.vector.windows")


def phases(p, every, count, offset=0):
    """A behaviour alternating between ``p`` and ``1 - p`` every ``every``
    global steps, ``count`` times, starting at step ``offset + every``."""
    cuts = [offset + every * (k + 1) for k in range(count)]
    return BranchBehavior(phases=tuple(
        [Phase(until, p if k % 2 == 0 else 1.0 - p)
         for k, until in enumerate(cuts)] + [Phase(math.inf, p)]))


def phased_nested_behavior():
    """``nested_cfg`` whose diamond changes phase every 1500 steps."""
    behavior = ProgramBehavior()
    behavior.set(2, steady(0.96))
    behavior.set(4, phases(0.8, 1_500, 12, offset=17))
    behavior.set(7, steady(0.001))
    return behavior


@pytest.mark.parametrize("draw", [8, 16, 64])
def test_phase_boundaries_after_window_refill(nested_cfg, draw):
    """A tiny uniform buffer makes every window refill (concatenate)
    ``U`` first, and the diamond's phase boundaries clip the windows that
    read the refilled buffer."""
    before = windows()
    vector = vector_trace(nested_cfg, phased_nested_behavior(), 20_000, 12,
                          draw)
    assert windows() > before
    scalar = scalar_trace(nested_cfg, phased_nested_behavior(), 20_000,
                          seed=12)
    assert_traces_equal(scalar, vector)


def dense_phase_cfg():
    """A loop of two splits that never exits.  Every branch changes
    phase every 20 steps, so each window is clipped by a boundary a few
    decisions in and the next one starts at that boundary."""
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
    steps = 8 * vecwalker._DRAW + 10_000
    behavior = ProgramBehavior()
    behavior.set(1, phases(0.5, 20, steps // 20))
    behavior.set(4, phases(0.4, 20, steps // 20, offset=7))
    behavior.set(6, steady(1.0))
    return cfg, behavior, steps


@pytest.mark.parametrize("draw", [vecwalker._DRAW, 13])
def test_dense_phase_boundaries(draw):
    """The shipped draw size, and one so small that every window
    refills: at least one window per boundary of either branch."""
    cfg, behavior, steps = dense_phase_cfg()
    before = windows()
    vector = vector_trace(cfg, behavior, steps, 31, draw)
    assert windows() - before >= steps // 20
    assert_traces_equal(scalar_trace(cfg, behavior, steps, seed=31),
                        vector)


def test_one_step_chunks_with_tiny_buffers(nested_cfg):
    """Uniforms drawn one at a time: every window refills the buffer it
    reads, wherever its phase boundaries fell."""
    behavior = phased_nested_behavior()
    before = windows()
    vector = vector_trace(nested_cfg, behavior, 5_000, 5, 1)
    assert windows() > before
    assert_traces_equal(scalar_trace(nested_cfg, behavior, 5_000, seed=5),
                        vector)


@pytest.mark.parametrize("window", [32, 64, 1024])
def test_fixed_window_sizes(nested_cfg, nested_behavior, monkeypatch,
                            window):
    """Windows that never grow, of any size, decide the same stream."""
    monkeypatch.setattr(vecwalker, "_WINDOW_START", window)
    monkeypatch.setattr(vecwalker, "_WINDOW", window)
    vector = VecWalker(nested_cfg, nested_behavior, seed=6).run(40_000)
    assert_traces_equal(
        scalar_trace(nested_cfg, nested_behavior, 40_000, seed=6), vector)


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
    offsets = vec._segments.offset
    for chunk in CHUNKS:
        vector = vector_trace(cfg, behavior, 20_000, 4, chunk)
        scalar = scalar_trace(cfg, behavior, 20_000, seed=4)
        assert_traces_equal(scalar, vector, f"chunk={chunk}")
    # The walk really does step backwards through the flat table.
    starts = np.flatnonzero(scalar.taken != -1) + 1
    nxt = scalar.blocks[starts[:-1]]
    assert (np.diff(offsets[nxt]) < 0).any()


# ---------------------------------------------------------------------------
# All-states windows: where a window's accepted prefix is clipped.
# ---------------------------------------------------------------------------

def assert_window_run(cfg, behavior, steps, seed, chunks=(13, 4096),
                      start=None):
    """Equal to the scalar walker at every chunking, and windows ran."""
    scalar = scalar_trace(cfg, behavior, steps, seed, start=start)
    for chunk in chunks:
        before = windows()
        vector = vector_trace(cfg, behavior, steps, seed, chunk, start=start)
        assert windows() > before, f"chunk={chunk}"
        assert_traces_equal(scalar, vector, f"chunk={chunk}")
    return scalar


@pytest.mark.parametrize("offset", range(0, 64, 7))
def test_phase_boundary_inside_lockstep_block(nested_cfg, offset):
    """Boundaries at every offset within a 32-decision block: the window
    runs past the boundary and keeps only the decisions before it."""
    behavior = ProgramBehavior()
    behavior.set(2, phases(0.96, 4_000, 3, offset=offset))
    behavior.set(4, phases(0.8, 2_500, 5, offset=3 * offset))
    behavior.set(7, steady(0.001))
    assert_window_run(nested_cfg, behavior, 16_000, seed=offset)


def test_two_warmups_expire_inside_one_window(nested_cfg, monkeypatch):
    """Both warming branches reach their last warm-up use inside the
    first window: each expiry clips the window and rebuilds the FSM."""
    behavior = ProgramBehavior()
    behavior.set(2, warmup(uses=40, p_init=0.5, p_steady=0.96))
    behavior.set(4, warmup(uses=3, p_init=0.05, p_steady=0.8))
    behavior.set(7, steady(0.001))
    discarded = counter_value("kernel.vector.decisions.discarded")
    assert_window_run(nested_cfg, behavior, 20_000, seed=3)
    assert counter_value("kernel.vector.decisions.discarded") > discarded


@pytest.mark.parametrize("draw", [1, 32])
@pytest.mark.parametrize("extra", range(0, 9, 2))
def test_budget_ends_mid_segment_inside_window(draw, extra):
    """The step budget clips a window, and the walk ends inside a
    segment.  Uniforms drawn 1 or 32 at a time make every window,
    the clipped last one too, refill its buffer first."""
    cfg, behavior = long_segment_cfg()
    assert_window_run(cfg, behavior, 6_000 + extra, seed=extra,
                      chunks=(draw,))


def test_exit_reached_mid_window():
    """A loop exit decided mid-window: the sink clips the window and the
    exit segment ends the trace before the budget."""
    cfg = ControlFlowGraph([(1,), (2, 4), (3,), (1,), (5,), ()])
    behavior = ProgramBehavior()
    behavior.set(1, steady(0.9995))
    trace = assert_window_run(cfg, behavior, 10**6, seed=9)
    assert 0 < trace.num_steps < 10**6
    assert trace.blocks[-1] == 5


def test_branch_free_cycle_reached_mid_window():
    """The outer latch leaves into a branch-free cycle mid-window; the
    cycle then fills the rest of the budget."""
    cfg = ControlFlowGraph([
        (1,), (2,), (3, 4), (2,), (5, 6), (7,), (7,),
        (8, 1),      # 7 outer latch: taken -> cycle
        (9,), (8,),  # 8 <-> 9, no branch
    ])
    behavior = ProgramBehavior()
    behavior.set(2, steady(0.96))
    behavior.set(4, steady(0.8))
    behavior.set(7, steady(0.002))
    trace = assert_window_run(cfg, behavior, 60_000, seed=2)
    assert set(trace.blocks[-10:].tolist()) == {8, 9}


@pytest.mark.parametrize("other", [0.1, 1.0])
def test_uniform_equal_to_probability_falls_through(other):
    """``u < p`` is strict: a uniform exactly equal to the branch
    probability falls through in a window, as in the scalar walker.  An
    unreachable branch at ``other`` puts ``p`` first or second among the
    distinct probabilities."""
    first = numpy_uniform_stream(21).random_sample(200)
    k = int(np.argmax(first))
    cfg = ControlFlowGraph([(0, 1), (), (2, 1)])
    behavior = ProgramBehavior()
    behavior.set(0, steady(float(first[k])))
    behavior.set(2, steady(other))
    trace = assert_window_run(cfg, behavior, 10_000, seed=21)
    assert trace.num_steps == k + 2  # k taken, the equal draw, the exit


@pytest.mark.parametrize("start", [2, 4, 7, 8])
def test_start_override_inside_loops(nested_cfg, nested_behavior, start):
    """Walks that start mid-loop (or at the exit) begin in the FSM state
    of the start block's segment."""
    if start == 8:
        trace = vector_trace(nested_cfg, nested_behavior, 5_000, 1, 13,
                             start=start)
        assert_traces_equal(scalar_trace(nested_cfg, nested_behavior, 5_000,
                                         1, start=start), trace)
        return
    assert_window_run(nested_cfg, nested_behavior, 30_000, seed=start,
                      start=start)


def test_one_branch_fsm():
    """S = 1: one branch state plus the sink, across phases."""
    cfg = ControlFlowGraph([(0, 1), ()])
    behavior = ProgramBehavior()
    behavior.set(0, phases(0.9999, 20_000, 3))
    assert_window_run(cfg, behavior, 80_000, seed=4)


def ring_cfg(n, seed):
    """``n`` branches in a ring, each jumping 1 or ~n/3 ahead, with two
    blocks of straight line and a rarely taken exit."""
    rng = random.Random(seed)
    succs = []
    for i in range(n):
        succs.append(((i + 1) % n, (i + n // 3 + rng.randrange(3)) % n))
    succs[0] = (n, 1)      # the exit branch
    succs.append((n + 1,))  # n: straight line
    succs.append(())        # n + 1: exit
    behavior = ProgramBehavior()
    for i in range(n):
        behavior.set(i, steady(rng.uniform(0.05, 0.95)))
    behavior.set(0, steady(0.0005))
    return ControlFlowGraph(succs), behavior


@pytest.mark.parametrize("n", [18, 255, 256, 300])
def test_more_branches_than_the_suite(n):
    """Up to 300 branches: the state dtype widens past ``uint8`` at 256
    states and the table index past ``int16``."""
    cfg, behavior = ring_cfg(n, seed=n)
    walker = VecWalker(cfg, behavior)
    assert len(walker._branches) == n
    assert walker._state_of.dtype == (np.uint8 if n < 256 else np.uint16)
    assert_window_run(cfg, behavior, 30_000, seed=n)


@settings(max_examples=80, deadline=None)
@given(walk_case(), st.sampled_from([(4, 8), (8, 32), (32, 64)]))
def test_fuzz_small_blocks_and_windows(case, sizes):
    """Tiny blocks and windows, and windows down to one decision before a
    boundary, so every clip lands at every position of a block."""
    cfg, behavior, steps, seed, chunk = case
    block, window = sizes
    with mock.patch.object(vecwalker, "_BLOCK", block), \
            mock.patch.object(vecwalker, "_WINDOW_START", window), \
            mock.patch.object(vecwalker, "_WINDOW", 4 * window):
        vector = vector_trace(cfg, behavior, steps, seed, chunk)
    assert_traces_equal(scalar_trace(cfg, behavior, steps, seed), vector,
                        f"steps={steps} seed={seed} sizes={sizes}")


# ---------------------------------------------------------------------------
# Whole-run counts: tallied from the walker's decisions, never rescanned.
# ---------------------------------------------------------------------------

def assert_counts_agree(cfg, behavior, steps, seed, chunk=13, start=None,
                        label=""):
    """``run``'s counts == ``count`` == bincount of ``run``'s arrays ==
    the scalar walker's counters, and neither walk counted its steps
    from an array or decoded them."""
    walker = VecWalker(cfg, behavior, seed=seed)
    passes = counter_value("trace.count_passes")
    decodes = counter_value("trace.decodes")
    with mock.patch.object(vecwalker, "_DRAW", chunk):
        traced = walker.run(steps, start=start)
        counted = walker.count(steps, start=start)
    walked = traced.counts()
    assert counter_value("trace.decodes") == decodes, label
    assert counter_value("trace.count_passes") == passes, label
    expected = reference_counts(scalar_trace(cfg, behavior, steps, seed,
                                             start=start))
    for got in (walked, counted, reference_counts(traced)):
        assert got.num_steps == expected.num_steps, label
        assert got.num_blocks == expected.num_blocks, label
        np.testing.assert_array_equal(got.use, expected.use, label)
        np.testing.assert_array_equal(got.taken, expected.taken, label)
    assert int(counted.use.sum()) == counted.num_steps, label
    return traced


@settings(max_examples=150, deadline=None)
@given(walk_case())
def test_fuzz_counts_equal_scalar(case):
    cfg, behavior, steps, seed, chunk = case
    assert_counts_agree(cfg, behavior, steps, seed, chunk,
                        label=f"steps={steps} seed={seed} chunk={chunk}")


@settings(max_examples=40, deadline=None)
@given(walk_case(), st.integers(min_value=0, max_value=23))
def test_fuzz_counts_start_override(case, start):
    cfg, behavior, steps, seed, chunk = case
    assert_counts_agree(cfg, behavior, steps, seed, chunk,
                        start=start % cfg.num_nodes, label=f"start={start}")


@settings(max_examples=80, deadline=None)
@given(walk_case(), st.sampled_from([(4, 8), (8, 32), (32, 64)]))
def test_fuzz_counts_small_blocks_and_windows(case, sizes):
    """Windows down to one decision before a boundary and tiny lockstep
    blocks: every clip of a window's tally lands at every position of a
    block."""
    cfg, behavior, steps, seed, chunk = case
    block, window = sizes
    with mock.patch.object(vecwalker, "_BLOCK", block), \
            mock.patch.object(vecwalker, "_WINDOW_START", window), \
            mock.patch.object(vecwalker, "_WINDOW", 4 * window):
        assert_counts_agree(cfg, behavior, steps, seed, chunk,
                            label=f"steps={steps} sizes={sizes}")


def test_counts_at_an_exit_mid_window():
    cfg = ControlFlowGraph([(1,), (2, 4), (3,), (1,), (5,), ()])
    behavior = ProgramBehavior()
    behavior.set(1, steady(0.9995))
    trace = assert_counts_agree(cfg, behavior, 10**6, seed=9, chunk=4096)
    assert 0 < trace.num_steps < 10**6


@pytest.mark.parametrize("steps", [1, 2, 7, 61, 60_000])
def test_counts_of_branch_free_cycle_tails(steps):
    """The cycle tail is counted in closed form (path, whole cycles and
    a partial one), both after a window and from the entry on."""
    after_loop = ControlFlowGraph([
        (1,), (2,), (3, 4), (2,), (5, 6), (7,), (7,),
        (8, 1),      # 7 outer latch: taken -> cycle
        (9,), (10,), (8,),  # 8 -> 9 -> 10 -> 8, no branch
    ])
    behavior = ProgramBehavior()
    behavior.set(2, steady(0.96))
    behavior.set(4, steady(0.8))
    behavior.set(7, steady(0.002))
    for chunk in CHUNKS:
        assert_counts_agree(after_loop, behavior, steps, seed=2,
                            chunk=chunk, label=f"chunk={chunk}")
    pure_cycle = ControlFlowGraph([(1,), (2,), (3,), (1,)])
    assert_counts_agree(pure_cycle, ProgramBehavior(), steps, seed=0)


@pytest.mark.parametrize("steps", list(range(1, 40)) + [6_001, 6_004])
def test_counts_when_the_budget_ends_mid_segment(steps):
    """A truncated final segment uses its prefix and records no taken
    outcome for the unreached branch."""
    cfg, behavior = long_segment_cfg()
    for chunk in (1, 4, 4096):
        assert_counts_agree(cfg, behavior, steps, seed=2, chunk=chunk,
                            label=f"steps={steps} chunk={chunk}")


@pytest.mark.parametrize("start", [2, 4, 7, 8])
def test_counts_from_start_overrides(nested_cfg, nested_behavior, start):
    assert_counts_agree(nested_cfg, nested_behavior, 30_000, seed=start,
                        start=start)


@pytest.mark.parametrize("offset", range(0, 64, 9))
def test_counts_across_phase_boundaries_in_a_lockstep_block(nested_cfg,
                                                            offset):
    behavior = ProgramBehavior()
    behavior.set(2, phases(0.96, 4_000, 3, offset=offset))
    behavior.set(4, phases(0.8, 2_500, 5, offset=3 * offset))
    behavior.set(7, steady(0.001))
    assert_counts_agree(nested_cfg, behavior, 16_000, seed=offset)


def test_counts_across_warmup_expiries_in_one_window(nested_cfg):
    behavior = ProgramBehavior()
    behavior.set(2, warmup(uses=40, p_init=0.5, p_steady=0.96))
    behavior.set(4, warmup(uses=3, p_init=0.05, p_steady=0.8))
    behavior.set(7, steady(0.001))
    windows0 = windows()
    assert_counts_agree(nested_cfg, behavior, 20_000, seed=3)
    assert windows() > windows0


@pytest.mark.parametrize("draw", [1, 32])
def test_counts_with_windows_up_to_the_budget(draw):
    cfg, behavior = long_segment_cfg()
    for extra in range(0, 9, 2):
        assert_counts_agree(cfg, behavior, 6_000 + extra, seed=extra,
                            chunk=draw)


def test_counts_with_one_step_chunks(nested_cfg):
    """Uniforms drawn one at a time: every window refills its buffer
    before it is tallied, in ``count`` as in ``run``."""
    before = windows()
    assert_counts_agree(nested_cfg, phased_nested_behavior(), 5_000, seed=5,
                        chunk=1)
    assert windows() > before


def test_count_only_walk_is_counted_as_a_run(nested_cfg, nested_behavior):
    runs = counter_value("kernel.vector.runs")
    count_runs = counter_value("kernel.vector.count_runs")
    VecWalker(nested_cfg, nested_behavior, seed=1).count(5_000)
    assert counter_value("kernel.vector.runs") == runs + 1
    assert counter_value("kernel.vector.count_runs") == count_runs + 1


@pytest.mark.parametrize("input_name", ["ref", "train"])
@pytest.mark.parametrize("name", [b.name for b in all_benchmarks()])
def test_benchmark_counts_equal_scalar(name, input_name):
    """Every benchmark input at 5% length: ``counts`` == the recorded
    trace's counts == the scalar walker's."""
    bench = get_benchmark(name).scaled(0.05)
    counted = bench.counts(input_name)
    traced = bench.trace(input_name)
    behavior, steps, seed = bench._input(input_name)
    expected = walker_counts(bench.cfg, behavior, steps, seed=seed)
    for got in (counted, traced.counts(), reference_counts(traced)):
        assert got.num_steps == expected.num_steps
        np.testing.assert_array_equal(got.use, expected.use)
        np.testing.assert_array_equal(got.taken, expected.taken)


# ---------------------------------------------------------------------------
# The decision log: the index built from it, and its decoded steps.
# ---------------------------------------------------------------------------

def assert_log_matches(scalar, vector, label=""):
    """The logged trace's index, built before any decode, equals the
    scalar walker's index and the oracle's index of the decoded arrays
    (keys, key order, values, dtypes); the decoded arrays equal the
    scalar walker's, and are decoded once.  The walker's per-start tally
    counts the logged starts."""
    log = vector._log
    assert log.per_start.dtype == np.int64, label
    np.testing.assert_array_equal(
        log.per_start, np.bincount(log.starts, minlength=vector.num_blocks),
        label)
    decodes = counter_value("trace.decodes")
    got = spelled_out(vector.events())
    assert counter_value("trace.decodes") == decodes, label
    for want in (spelled_out(scalar.events()), reference_events(vector)):
        assert list(got) == list(want), label
        for block, ref in want.items():
            ev = got[block]
            dtype = step_dtype(vector.num_steps)
            assert ev.steps.dtype == ref.steps.dtype == dtype, label
            assert ev.taken_prefix.dtype == ref.taken_prefix.dtype \
                == dtype, label
            np.testing.assert_array_equal(ev.steps, ref.steps,
                                          f"{label} block {block}")
            np.testing.assert_array_equal(ev.taken_prefix, ref.taken_prefix,
                                          f"{label} block {block}")
    assert counter_value("trace.decodes") == decodes + 1, label
    assert vector.num_steps == scalar.num_steps, label
    np.testing.assert_array_equal(vector.blocks, scalar.blocks, label)
    np.testing.assert_array_equal(vector.taken, scalar.taken, label)
    assert vector.blocks.dtype == np.int32 and vector.taken.dtype == np.int8
    assert counter_value("trace.decodes") == decodes + 1, label


def logged_run(cfg, behavior, steps, seed, start=None, chunk=vecwalker._DRAW):
    return vector_trace(cfg, behavior, steps, seed, chunk, start=start)


def assert_logged_run(cfg, behavior, steps, seed, start=None, label="",
                      chunk=vecwalker._DRAW):
    vector = logged_run(cfg, behavior, steps, seed, start=start,
                        chunk=chunk)
    assert_log_matches(scalar_trace(cfg, behavior, steps, seed, start=start),
                       vector, label)
    return vector


@st.composite
def join_cfg_strategy(draw):
    """Straight-line chains (``v -> v + 1``) that branches jump into the
    middle of, so one block sits in the segments of several starts."""
    n = draw(st.integers(min_value=3, max_value=24))
    node = st.integers(min_value=0, max_value=n - 1)
    succs = []
    for v in range(n):
        kind = draw(st.integers(min_value=0, max_value=5))
        if kind == 0:
            succs.append(())
        elif kind <= 3:
            succs.append(((v + 1) % n,))
        else:
            succs.append((draw(node), draw(node)))
    return ControlFlowGraph(succs)


@st.composite
def join_walk_case(draw):
    steps = draw(st.integers(min_value=0, max_value=3000))
    cfg = draw(join_cfg_strategy())
    behavior = draw(behavior_strategy(cfg, steps))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return cfg, behavior, steps, seed


@settings(max_examples=150, deadline=None)
@given(walk_case())
def test_fuzz_log_index_equals_oracles(case):
    cfg, behavior, steps, seed, _ = case
    assert_logged_run(cfg, behavior, steps, seed,
                      label=f"steps={steps} seed={seed}")


@settings(max_examples=150, deadline=None)
@given(join_walk_case(), st.integers(min_value=0, max_value=23))
def test_fuzz_log_index_with_join_blocks(case, start):
    cfg, behavior, steps, seed = case
    assert_logged_run(cfg, behavior, steps, seed,
                      start=start % cfg.num_nodes,
                      label=f"steps={steps} seed={seed} start={start}")


@settings(max_examples=60, deadline=None)
@given(join_walk_case(), st.sampled_from([(4, 8), (8, 32)]))
def test_fuzz_log_index_small_blocks_and_windows(case, sizes):
    """Tiny windows and blocks: logged windows end at every position of
    a lockstep block."""
    cfg, behavior, steps, seed = case
    block, window = sizes
    with mock.patch.object(vecwalker, "_BLOCK", block), \
            mock.patch.object(vecwalker, "_WINDOW_START", window), \
            mock.patch.object(vecwalker, "_WINDOW", 4 * window):
        vector = logged_run(cfg, behavior, steps, seed)
    assert_log_matches(scalar_trace(cfg, behavior, steps, seed), vector,
                       f"steps={steps} seed={seed} sizes={sizes}")


def test_log_of_a_join_block_branch():
    """Blocks 6-8 sit in the segments of 5 and 9, and blocks 1-4 in those
    of 0 and 1, so their runs are merged by step; branches 4 and 8 merge
    their outcomes with them."""
    cfg, behavior = long_segment_cfg()
    trace = assert_logged_run(cfg, behavior, 20_000, seed=7)
    starts = set(trace._log.starts.tolist())
    assert {5, 9} <= starts and 6 not in starts


def test_log_when_an_exit_is_reached_mid_window():
    cfg = ControlFlowGraph([(1,), (2, 4), (3,), (1,), (5,), ()])
    behavior = ProgramBehavior()
    behavior.set(1, steady(0.9995))
    trace = assert_logged_run(cfg, behavior, 10**6, seed=9)
    assert 0 < trace.num_steps < 10**6
    assert trace._log.tail_start == 4 and trace._log.tail_steps == 2


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 61, 60_000])
def test_log_of_branch_free_cycle_tails(steps):
    """The cycle tail is logged as one record and indexed in closed form:
    its blocks repeat every cycle length."""
    after_loop = ControlFlowGraph([
        (1,), (2,), (3, 4), (2,), (5, 6), (7,), (7,),
        (8, 1),      # 7 outer latch: taken -> cycle
        (9,), (10,), (8,),  # 8 -> 9 -> 10 -> 8, no branch
    ])
    behavior = ProgramBehavior()
    behavior.set(2, steady(0.96))
    behavior.set(4, steady(0.8))
    behavior.set(7, steady(0.002))
    assert_logged_run(after_loop, behavior, steps, seed=2)
    lead_in = ControlFlowGraph([(1,), (2,), (3,), (1,)])
    trace = assert_logged_run(lead_in, ProgramBehavior(), steps, seed=0)
    assert len(trace._log.starts) == 0 and trace._log.tail_steps == steps


@pytest.mark.parametrize("steps", list(range(1, 40)) + [6_001, 6_004])
def test_log_when_the_budget_ends_mid_segment(steps):
    cfg, behavior = long_segment_cfg()
    assert_logged_run(cfg, behavior, steps, seed=2, label=f"steps={steps}")


@pytest.mark.parametrize("start", [2, 4, 7, 8])
def test_log_from_start_overrides(nested_cfg, nested_behavior, start):
    assert_logged_run(nested_cfg, nested_behavior, 30_000, seed=start,
                      start=start)


@pytest.mark.parametrize("offset", range(0, 64, 9))
def test_log_across_phase_boundaries_in_a_lockstep_block(nested_cfg,
                                                         offset):
    behavior = ProgramBehavior()
    behavior.set(2, phases(0.96, 4_000, 3, offset=offset))
    behavior.set(4, phases(0.8, 2_500, 5, offset=3 * offset))
    behavior.set(7, steady(0.001))
    assert_logged_run(nested_cfg, behavior, 16_000, seed=offset)


def test_log_across_warmup_expiries_in_one_window(nested_cfg):
    behavior = ProgramBehavior()
    behavior.set(2, warmup(uses=40, p_init=0.5, p_steady=0.96))
    behavior.set(4, warmup(uses=3, p_init=0.05, p_steady=0.8))
    behavior.set(7, steady(0.001))
    windows0 = windows()
    assert_logged_run(nested_cfg, behavior, 20_000, seed=3)
    assert windows() > windows0


@pytest.mark.parametrize("draw", [1, 32])
def test_log_with_windows_up_to_the_budget(draw):
    cfg, behavior = long_segment_cfg()
    for extra in range(0, 9, 2):
        assert_logged_run(cfg, behavior, 6_000 + extra, seed=extra,
                          chunk=draw)


def test_log_with_tiny_buffers(nested_cfg):
    """Windows that refill their buffer first keep their place in the
    log."""
    before = windows()
    assert_logged_run(nested_cfg, phased_nested_behavior(), 5_000, seed=5,
                      chunk=16)
    assert windows() > before


@pytest.mark.parametrize("nodes", [255, 256, 257])
def test_log_start_width_at_the_uint8_edge(nodes):
    """Segment starts are logged as ``uint8`` up to 256 block ids and as
    ``uint16`` beyond, and index the same either way."""
    cfg, behavior = ring_cfg(nodes - 2, seed=nodes)
    assert cfg.num_nodes == nodes
    trace = assert_logged_run(cfg, behavior, 30_000, seed=nodes)
    assert trace._log.starts.dtype == (np.uint8 if nodes <= 256
                                       else np.uint16)
    assert nodes - 3 in trace._log.starts.tolist()  # the top ring start


@pytest.mark.parametrize("input_name", ["ref", "train"])
@pytest.mark.parametrize("name", [b.name for b in all_benchmarks()])
def test_benchmark_logs_equal_scalar(name, input_name):
    """Every benchmark input at 5% length: the recorded trace's index and
    decoded steps are the scalar walker's."""
    bench = get_benchmark(name).scaled(0.05)
    behavior, steps, seed = bench._input(input_name)
    assert_log_matches(scalar_trace(bench.cfg, behavior, steps, seed),
                       bench.trace(input_name), f"{name}:{input_name}")
