"""Direct unit coverage for the replay building blocks.

The differential wall (``test_replay_diff.py``) proves the batched
sweep agrees with the reference heap walk; this file pins what the
shared primitives both are built on actually compute — registration positions,
freeze-respecting counter views, the candidate pool state machine — and
the multi-threshold counter semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import ControlFlowGraph
from repro.dbt import CandidatePool, DBTConfig, MultiThresholdReplay, ReplayDBT
from repro.dbt.replay import frozen_counter_view
from repro.obs.registry import counter_value
from repro.stochastic import ProgramBehavior, walk
from repro.stochastic.trace import ExecutionTrace

from ..reference import registration_positions


def _trace_of(blocks, taken=None, num_blocks=None):
    blocks = np.asarray(blocks, dtype=np.int32)
    if taken is None:
        taken = np.zeros(len(blocks), dtype=np.int8)
    if num_blocks is None:
        num_blocks = int(blocks.max()) + 1 if len(blocks) else 1
    return ExecutionTrace(blocks=blocks,
                          taken=np.asarray(taken, dtype=np.int8),
                          num_blocks=num_blocks)


# ---------------------------------------------------------------------------
# registration_positions
# ---------------------------------------------------------------------------

def test_registration_positions_strided_semantics():
    """The k-th registration is the (k*T)-th execution of the block."""
    # Block 0 runs at steps 0,2,4,6,8; block 1 at 1,3,5,7,9.
    trace = _trace_of([0, 1] * 5)
    events = trace.events()
    pos = registration_positions(events, threshold=2)
    # Block 0's 2nd and 4th executions are at trace positions 2 and 6.
    np.testing.assert_array_equal(pos[0], [2, 6])
    np.testing.assert_array_equal(pos[1], [3, 7])


def test_registration_positions_threshold_one_is_every_step():
    trace = _trace_of([0, 1, 0, 1, 0])
    pos = registration_positions(trace.events(), threshold=1)
    np.testing.assert_array_equal(pos[0], [0, 2, 4])
    np.testing.assert_array_equal(pos[1], [1, 3])


def test_registration_positions_drops_unregistered_blocks():
    """Blocks with fewer than T executions never register at all."""
    trace = _trace_of([0, 0, 0, 1])
    pos = registration_positions(trace.events(), threshold=3)
    assert list(pos) == [0]
    np.testing.assert_array_equal(pos[0], [2])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), max_size=200),
       st.integers(min_value=1, max_value=9))
def test_registration_positions_properties(blocks, threshold):
    """Positions are strictly increasing, unique across blocks, and each
    block contributes exactly floor(executions / T) of them."""
    trace = _trace_of(blocks, num_blocks=5)
    events = trace.events()
    pos = registration_positions(events, threshold)
    seen = []
    for block, regs in pos.items():
        assert len(regs) == events[block].use // threshold
        assert np.all(np.diff(regs) > 0)  # monotone within a block
        seen.extend(int(p) for p in regs)
    assert len(seen) == len(set(seen))  # one block executes per step
    for block, ev in events.items():
        if ev.use >= threshold:
            assert block in pos


# ---------------------------------------------------------------------------
# frozen_counter_view
# ---------------------------------------------------------------------------

def test_frozen_counter_view_counts_up_to_now():
    trace = _trace_of([0, 0, 1, 0], taken=[1, 0, 1, 1])
    view = frozen_counter_view(trace.events(), freeze_step={}, now=3)
    assert view(0) == (2, 1)   # two uses before step 3, one taken
    assert view(1) == (1, 1)
    assert view(7) == (0, 0)   # never-seen block


def test_frozen_counter_view_respects_freeze():
    """A frozen block's counters stop at its freeze step even when the
    view is taken later."""
    trace = _trace_of([0, 0, 0, 0], taken=[1, 1, 0, 0])
    events = trace.events()
    unfrozen = frozen_counter_view(events, {}, now=4)
    frozen = frozen_counter_view(events, {0: 2}, now=4)
    assert unfrozen(0) == (4, 2)
    assert frozen(0) == (2, 2)


def test_frozen_counter_view_freeze_after_now_is_inert():
    trace = _trace_of([0, 0, 0])
    view = frozen_counter_view(trace.events(), {0: 10}, now=2)
    assert view(0) == (2, 0)   # min(now, limit) == now


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=100),
       st.integers(min_value=0, max_value=120),
       st.integers(min_value=0, max_value=120))
def test_frozen_counter_view_is_monotone_and_capped(taken, now, limit):
    """use/taken grow monotonically with now, cap at the freeze step,
    and taken <= use always."""
    trace = _trace_of([0] * len(taken), taken=[int(t) for t in taken])
    events = trace.events()
    use_now, taken_now = frozen_counter_view(events, {0: limit}, now)(0)
    assert 0 <= taken_now <= use_now <= min(now, limit, len(taken))
    use_later, taken_later = frozen_counter_view(
        events, {0: limit}, now + 1)(0)
    assert use_later >= use_now and taken_later >= taken_now


# ---------------------------------------------------------------------------
# CandidatePool state machine
# ---------------------------------------------------------------------------

def test_pool_register_returns_trigger_on_fill():
    pool = CandidatePool(DBTConfig(pool_trigger_size=3))
    assert pool.register(10) is False
    assert pool.register(11) is False
    assert pool.register(12) is True
    assert pool.blocks == [10, 11, 12]


def test_pool_register_twice_rule():
    on = CandidatePool(DBTConfig(pool_trigger_size=5,
                                 register_twice_triggers=True))
    on.register(1)
    assert on.register(1) is True      # dup fires when enabled
    assert len(on) == 1                # ...but is not re-added
    off = CandidatePool(DBTConfig(pool_trigger_size=5,
                                  register_twice_triggers=False))
    off.register(1)
    assert off.register(1) is False
    assert len(off) == 1


def test_pool_drain_empties_and_preserves_order():
    pool = CandidatePool(DBTConfig(pool_trigger_size=10))
    for b in (5, 3, 9):
        pool.register(b)
    assert pool.drain() == [5, 3, 9]
    assert len(pool) == 0
    assert pool.drain() == []          # drain is idempotent when empty
    # A drained block registers fresh, as a brand-new member.
    assert pool.register(5) is False
    assert pool.blocks == [5]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), max_size=60),
       st.integers(min_value=1, max_value=8),
       st.booleans())
def test_pool_properties(registrations, trigger_size, twice):
    """Membership is a set, order is first-registration order, and the
    trigger fires exactly per the config rules."""
    config = DBTConfig(pool_trigger_size=trigger_size,
                       register_twice_triggers=twice)
    pool = CandidatePool(config)
    members = []
    for block in registrations:
        was_member = block in pool
        fired = pool.register(block)
        if was_member:
            assert fired is twice
        else:
            members.append(block)
            assert fired is (len(members) >= trigger_size)
        assert pool.blocks == members
        if fired:
            assert pool.drain() == members
            assert len(pool) == 0
            members = []


# ---------------------------------------------------------------------------
# Multi-threshold counter semantics (the N-fold inflation fix).
# ---------------------------------------------------------------------------

def _study_inputs():
    cfg = ControlFlowGraph([(1,), (1, 2), ()])
    behavior = ProgramBehavior()
    from repro.stochastic import steady
    behavior.set(1, steady(0.98))
    trace = walk(cfg, behavior, max_steps=20_000, seed=5)
    return cfg, trace


def _engines(request, kernel):
    """``"scalar"`` runs the pipeline on the reference engines."""
    if kernel == "scalar":
        request.getfixturevalue("oracle_engines")


@pytest.mark.parametrize("kernel", ["scalar", "batched"])
def test_multireplay_counts_one_shared_pass(request, kernel):
    """A multi-threshold sweep counts as one replay of the trace:
    replay.runs and replay.blocks_translated must match a single
    ReplayDBT run, not scale with the number of threshold states, on
    either engine."""
    _engines(request, kernel)
    cfg, trace = _study_inputs()
    thresholds = [2, 10, 50, 200]
    events = trace.events()

    runs0 = counter_value("replay.runs")
    translated0 = counter_value("replay.blocks_translated")
    MultiThresholdReplay(trace, cfg, thresholds).run()
    assert counter_value("replay.runs") - runs0 == 1
    assert counter_value("replay.blocks_translated") - translated0 == \
        len(events)


@pytest.mark.parametrize("kernel", ["scalar", "batched"])
def test_multireplay_per_state_counters_still_sum(request, kernel):
    """Retranslations/regions/optimization events stay per-state."""
    _engines(request, kernel)
    cfg, trace = _study_inputs()
    thresholds = [2, 10, 50]
    retr0 = counter_value("replay.retranslations")
    multi = MultiThresholdReplay(trace, cfg, thresholds).run()
    expected = sum(len(multi.state(t).optimized) for t in thresholds)
    assert counter_value("replay.retranslations") - retr0 == expected
    assert expected > 0


def test_replay_kernel_counters_attribute_the_pass():
    """Each replay credits its windows and swept events to the batched
    sweep counters, alone or as a multi-threshold sweep's state."""
    cfg, trace = _study_inputs()
    w0 = counter_value("replay.kernel.batched.windows")
    e0 = counter_value("replay.kernel.batched.events")
    ReplayDBT(trace, cfg, DBTConfig(threshold=10)).run()
    windows = counter_value("replay.kernel.batched.windows") - w0
    swept = counter_value("replay.kernel.batched.events") - e0
    assert windows > 0 and swept > 0
    MultiThresholdReplay(trace, cfg, [10]).run()
    assert counter_value("replay.kernel.batched.windows") - w0 == \
        2 * windows
    assert counter_value("replay.kernel.batched.events") - e0 == 2 * swept
