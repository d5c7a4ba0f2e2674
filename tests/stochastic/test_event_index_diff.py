"""Differential wall: the radix-sorted event index against a linear scan.

:meth:`ExecutionTrace.events` groups a trace's steps by block with one
stable argsort over ids narrowed to 8 or 16 bits where they fit.  Here
it must equal :func:`reference.reference_events` — one
``flatnonzero(blocks == b)`` per block — in keys, key order, values and
dtypes, across every key-width edge (1, 255, 256, 257, 65536 and 65537
blocks).  The named tests pin the degenerate traces and the index's
read-only step views.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import counter_value
from repro.stochastic import NO_BRANCH, ExecutionTrace
from repro.stochastic.trace import step_dtype

from ..reference import reference_events

#: Block-id space sizes straddling the uint8 / uint16 / int32 key widths.
WIDTH_EDGES = (1, 255, 256, 257, 65536, 65537)


def assert_index_equals_oracle(trace):
    got, want = trace.events(), reference_events(trace)
    assert list(got) == list(want)
    for block, ref in want.items():
        ev = got[block]
        dtype = step_dtype(trace.num_steps)
        assert ev.steps.dtype == ref.steps.dtype == dtype
        assert ev.taken_prefix.dtype == ref.taken_prefix.dtype == dtype
        np.testing.assert_array_equal(ev.steps, ref.steps, f"block {block}")
        np.testing.assert_array_equal(ev.taken_prefix, ref.taken_prefix,
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
    """100k steps over 200 ids spread across the whole id space: long
    enough for numpy's radix sort on narrow keys."""
    rng = np.random.default_rng(num_blocks)
    ids = rng.integers(0, num_blocks, 200)
    ids[:2] = (0, num_blocks - 1)
    blocks = rng.choice(ids, 100_000)
    taken = rng.integers(-1, 2, 100_000)
    assert_index_equals_oracle(ExecutionTrace(blocks, taken, num_blocks))


def test_empty_trace():
    trace = ExecutionTrace.from_sequences([], [], 3)
    assert trace.events() == {}
    assert_index_equals_oracle(trace)


def test_one_step_trace():
    trace = ExecutionTrace.from_sequences([2], [1], 3)
    ev = trace.events()
    assert list(ev) == [2]
    assert list(ev[2].steps) == [0]
    assert list(ev[2].taken_prefix) == [0, 1]
    assert_index_equals_oracle(trace)


def test_all_non_branch_trace():
    trace = ExecutionTrace.from_sequences([0, 1, 2, 1, 0, 1],
                                          [NO_BRANCH] * 6, 3)
    for ev in trace.events().values():
        assert not ev.taken_prefix.any()
    assert_index_equals_oracle(trace)


def test_steps_are_read_only():
    trace = ExecutionTrace.from_sequences([0, 1, 0, 1], [-1, 1, -1, 0], 2)
    for ev in trace.events().values():
        with pytest.raises(ValueError):
            ev.steps[0] = 7
    # The shared sort order underneath is untouched.
    assert list(trace.events()[0].steps) == [0, 2]


def test_index_is_built_once_on_first_use():
    trace = ExecutionTrace.from_sequences([0, 1, 0], [-1, 1, -1], 2)
    before = counter_value("trace.index_builds")
    assert trace._events is None  # nothing is built up front
    first = trace.events()
    assert trace.events() is first
    assert counter_value("trace.index_builds") == before + 1
