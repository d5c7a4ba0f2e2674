"""Differential wall: the compact event index against a linear scan.

:meth:`ExecutionTrace.events` keeps each block's executions as 16-bit
step residues plus a per-bucket table, and its taken count as int8
outcomes plus a checkpoint every 64 executions.  Decoded, it must equal
:func:`reference.reference_events` — one ``flatnonzero(blocks == b)``
per block — in keys, key order, values and dtypes, and every rank
lookup (``use_before``, ``taken_upto``) and select (``steps_at``) must
agree with the oracle's arrays.  The array builder is checked across
every key-width edge (1, 255, 256, 257, 65536 and 65537 blocks); the
named tests pin the bucket and checkpoint edges, join blocks whose runs
straddle a chunk of the log builder, the two builders' agreement on
one walk, the degenerate traces and the index's read-only arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import counter_value
from repro.stochastic import NO_BRANCH, ExecutionTrace, VecWalker
from repro.stochastic import trace as trace_module
from repro.stochastic.trace import BUCKET_BITS, step_dtype
from repro.workloads import get_benchmark

from ..reference import reference_events, spelled_out
from .test_vecwalker_diff import join_walk_case

#: Block-id space sizes straddling the uint8 / uint16 / int32 key widths.
WIDTH_EDGES = (1, 255, 256, 257, 65536, 65537)

#: Rank probes per block: every step (and its successor) up to this
#: many executions, a sample beyond.
PROBES = 400


def probe_steps(steps, num_steps):
    """Steps worth a rank lookup: the block's own steps and their
    neighbours, the bucket edges around them, 0 and the run's length."""
    steps = steps.astype(np.int64)
    if len(steps) > PROBES:
        steps = steps[np.linspace(0, len(steps) - 1, PROBES).astype(int)]
    edges = (steps >> BUCKET_BITS) << BUCKET_BITS
    next_edges = edges + (1 << BUCKET_BITS)
    return np.unique(np.concatenate([
        steps - 1, steps, steps + 1, edges - 1, edges, next_edges,
        [0, num_steps]]).clip(0, num_steps))


def assert_store_matches(ev, ref, num_steps, label=""):
    """One block's store answers every query like the oracle's arrays."""
    dtype = step_dtype(num_steps)
    steps, prefix = ev.steps(), ev.taken_prefix()
    assert steps.dtype == ref.steps.dtype == dtype, label
    assert prefix.dtype == ref.taken_prefix.dtype == dtype, label
    np.testing.assert_array_equal(steps, ref.steps, label)
    np.testing.assert_array_equal(prefix, ref.taken_prefix, label)
    assert ev.use == len(ref.steps), label
    assert ev.taken == ref.taken_prefix[-1], label
    assert (ev.first_step, ev.last_step) == (ref.steps[0], ref.steps[-1])
    ranks = np.arange(ev.use + 1)
    if len(ranks) > PROBES:
        ranks = np.unique(np.concatenate([
            ranks[:PROBES], ranks[-PROBES:],
            np.linspace(0, ev.use, PROBES).astype(int)]))
    for i in ranks.tolist():
        assert ev.taken_upto(i) == ref.taken_prefix[i], (label, i)
    picks = ranks[ranks < ev.use]
    np.testing.assert_array_equal(ev.steps_at(picks), ref.steps[picks],
                                  label)
    for step in probe_steps(ref.steps, num_steps).tolist():
        assert ev.use_before(step) == np.searchsorted(ref.steps, step), \
            (label, step)


def assert_index_equals_oracle(trace):
    got, want = trace.events(), reference_events(trace)
    assert list(got) == list(want)
    for block, ref in want.items():
        assert_store_matches(got[block], ref, trace.num_steps,
                             f"block {block}")


@st.composite
def trace_case(draw):
    """A trace over one of the width-edge id spaces.

    Ids are drawn from a small per-trace pool (so blocks repeat) that
    always may include both ends of the id space; outcomes are arbitrary
    per step, which the index must count exactly like the oracle.
    """
    num_blocks = draw(st.sampled_from(WIDTH_EDGES))
    top = num_blocks - 1
    ident = st.one_of(st.sampled_from(sorted({0, top, top // 2})),
                      st.integers(0, top))
    pool = draw(st.lists(ident, min_size=1, max_size=12))
    blocks = draw(st.lists(st.sampled_from(pool), max_size=300))
    taken = draw(st.lists(st.sampled_from((NO_BRANCH, 0, 1)),
                          min_size=len(blocks), max_size=len(blocks)))
    return ExecutionTrace.from_sequences(blocks, taken, num_blocks)


@settings(deadline=None)
@given(trace_case())
def test_fuzz_index_equals_oracle(trace):
    assert_index_equals_oracle(trace)


@pytest.mark.parametrize("num_blocks", WIDTH_EDGES)
def test_long_trace_every_key_width(num_blocks):
    """200k steps over 200 ids spread across the whole id space: long
    enough for numpy's radix sort on narrow keys, and for four buckets."""
    rng = np.random.default_rng(num_blocks)
    ids = rng.integers(0, num_blocks, 200)
    ids[:2] = (0, num_blocks - 1)
    blocks = rng.choice(ids, 200_000)
    taken = rng.integers(-1, 2, 200_000)
    assert_index_equals_oracle(ExecutionTrace(blocks, taken, num_blocks))


@pytest.mark.parametrize("sort_chunk", [trace_module._SORT_CHUNK, 1000])
def test_bucket_edges_and_absent_buckets(monkeypatch, sort_chunk):
    """Steps 65535, 65536 and 65537 sit either side of the first bucket
    edge; block 2 runs in buckets 0 and 3 only, so its table carries
    two empty buckets, whether its two steps reach the builder in one
    run or in two; rank lookups at the edges and at the run's length
    agree with the oracle."""
    monkeypatch.setattr(trace_module, "_SORT_CHUNK", sort_chunk)
    edge = 1 << BUCKET_BITS
    n = 3 * edge + 10
    blocks = np.zeros(n, dtype=np.int32)
    blocks[[edge - 1, edge, edge + 1]] = 1
    blocks[[7, 3 * edge + 5]] = 2
    taken = np.full(n, NO_BRANCH, dtype=np.int8)
    taken[[edge - 1, edge + 1]] = 1
    taken[edge] = 0
    trace = ExecutionTrace(blocks, taken, 3)
    events = trace.events()
    one, two = events[1], events[2]
    assert list(one.steps()) == [edge - 1, edge, edge + 1]
    assert [one.use_before(s) for s in (edge - 1, edge, edge + 1,
                                        edge + 2)] == [0, 1, 2, 3]
    assert [one.taken_upto(i) for i in range(4)] == [0, 1, 1, 2]
    assert list(two.steps()) == [7, 3 * edge + 5]
    for step, want in ((edge, 1), (2 * edge, 1), (3 * edge, 1),
                       (3 * edge + 5, 1), (3 * edge + 6, 2)):
        assert two.use_before(step) == want, step
    for ev in events.values():
        assert ev.use_before(n) == ev.use
    assert_index_equals_oracle(trace)


def test_taken_counts_across_checkpoints():
    """Taken ranks 63, 64 and 65 straddle the first checkpoint, 127-129
    the second; every rank matches the running count."""
    rng = np.random.default_rng(3)
    n = 200
    taken = rng.integers(0, 2, n).astype(np.int8)
    trace = ExecutionTrace(np.zeros(n, dtype=np.int32), taken, 1)
    ev = trace.events()[0]
    prefix = np.concatenate([[0], np.cumsum(taken)])
    for i in (0, 1, 63, 64, 65, 127, 128, 129, n - 1, n):
        assert ev.taken_upto(i) == prefix[i], i
    assert ev.taken == prefix[-1]
    assert_index_equals_oracle(trace)


@settings(max_examples=60, deadline=None)
@given(join_walk_case(), st.sampled_from([1, 2, 7, 64]))
def test_join_runs_straddle_log_chunks(case, chunk):
    """The log builder with a tiny chunk: join blocks' runs split across
    many chunks and merge within each, and still equal the oracle."""
    cfg, behavior, steps, seed = case
    trace = VecWalker(cfg, behavior, seed=seed).run(steps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_module, "_INDEX_CHUNK", chunk)
        assert_index_equals_oracle(trace)


def layout(events):
    return (events.residues, events.bucket_at, events.bucket_base,
            events.blocks, events.offsets, events.uses)


@pytest.mark.parametrize("chunk", [1 << 10, trace_module._INDEX_CHUNK])
def test_log_and_array_builders_lay_out_the_same_index(monkeypatch, chunk):
    """A walker trace's index, built from its decision log, equals the
    index built from the same walk's decoded arrays, array for array."""
    monkeypatch.setattr(trace_module, "_INDEX_CHUNK", chunk)
    logged = get_benchmark("mcf").scaled(0.1).trace("ref")
    from_log = logged.events()
    arrays = ExecutionTrace(logged.blocks, logged.taken, logged.num_blocks)
    from_arrays = arrays.events()
    assert logged.num_steps > 4 << BUCKET_BITS
    for a, b in zip(layout(from_log), layout(from_arrays)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert list(from_log) == list(from_arrays)
    got, want = spelled_out(from_log), spelled_out(from_arrays)
    for block, ref in want.items():
        np.testing.assert_array_equal(got[block].steps, ref.steps)
        np.testing.assert_array_equal(got[block].taken_prefix,
                                      ref.taken_prefix)
    assert_index_equals_oracle(logged)


def test_empty_trace():
    trace = ExecutionTrace.from_sequences([], [], 3)
    assert trace.events() == {}
    assert_index_equals_oracle(trace)


def test_one_step_trace():
    trace = ExecutionTrace.from_sequences([2], [1], 3)
    ev = trace.events()
    assert list(ev) == [2]
    assert list(ev[2].steps()) == [0]
    assert list(ev[2].taken_prefix()) == [0, 1]
    assert_index_equals_oracle(trace)


def test_all_non_branch_trace():
    trace = ExecutionTrace.from_sequences([0, 1, 2, 1, 0, 1],
                                          [NO_BRANCH] * 6, 3)
    for ev in trace.events().values():
        assert ev.taken == 0 and not ev.taken_prefix().any()
    assert_index_equals_oracle(trace)


def test_steps_are_read_only():
    """The shared step residues, tables and checkpoints, and every
    block's views of them, refuse writes."""
    trace = ExecutionTrace.from_sequences([0, 1, 0, 1], [-1, 1, -1, 0], 2)
    events = trace.events()
    views = [ev._res for ev in events.values()] + [events[1]._checks]
    for array in list(layout(events)) + views:
        with pytest.raises(ValueError):
            array[0] = 7
    # The shared arrays underneath are untouched.
    assert list(trace.events()[0].steps()) == [0, 2]


def test_index_is_built_once_on_first_use():
    trace = ExecutionTrace.from_sequences([0, 1, 0], [-1, 1, -1], 2)
    before = counter_value("trace.index_builds")
    assert trace._events is None  # nothing is built up front
    first = trace.events()
    assert trace.events() is first
    assert counter_value("trace.index_builds") == before + 1
