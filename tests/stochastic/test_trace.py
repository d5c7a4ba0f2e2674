"""Execution-trace structure tests."""

import inspect
import pathlib
import tracemalloc

import numpy as np
import pytest

import repro
from repro.interp import Interpreter
from repro.obs.registry import counter_value, get_registry
from repro.stochastic import (NO_BRANCH, BlockEvents, EventIndex,
                              ExecutionTrace, RunCounts, TraceError,
                              TraceRecorder)
from repro.workloads import get_benchmark

from ..reference import edge_counts, validate_against_cfg


def _tiny_trace():
    # blocks: 0 1 0 1 2 ; block 1 is a branch (T, F), others plain.
    return ExecutionTrace.from_sequences(
        blocks=[0, 1, 0, 1, 2],
        taken=[NO_BRANCH, 1, NO_BRANCH, 0, NO_BRANCH],
        num_blocks=3)


def test_counts():
    trace = _tiny_trace()
    assert list(trace.use_counts()) == [2, 2, 1]
    assert list(trace.taken_counts()) == [0, 1, 0]
    assert list(trace.branch_blocks()) == [1]
    assert trace.num_steps == len(trace) == 5


def test_array_trace_counts_once_and_caches():
    """A trace built from arrays is counted by one cached bincount that
    the counters and the event index share."""
    trace = _tiny_trace()
    passes = counter_value("trace.count_passes")
    use, taken = trace.use_counts(), trace.taken_counts()
    trace.events()
    assert trace.use_counts() is use and trace.taken_counts() is taken
    assert counter_value("trace.count_passes") == passes + 1
    assert not use.flags.writeable and not taken.flags.writeable


def test_recorded_counts_are_read_not_recounted():
    counts = RunCounts(use=np.array([2, 2, 1]), taken=np.array([0, 1, 0]),
                       num_steps=5)
    trace = ExecutionTrace(np.array([0, 1, 0, 1, 2]),
                           np.array([NO_BRANCH, 1, NO_BRANCH, 0, NO_BRANCH]),
                           3, counts=counts)
    passes = counter_value("trace.count_passes")
    assert trace.counts() is counts
    assert list(trace.events()[1].taken_prefix()) == [0, 1, 1]
    assert counter_value("trace.count_passes") == passes
    with pytest.raises(TraceError):
        ExecutionTrace(trace.blocks[:4], trace.taken[:4], 3, counts=counts)


def test_events_index():
    trace = _tiny_trace()
    events = trace.events()
    assert list(events[1].steps()) == [1, 3]
    assert list(events[1].taken_prefix()) == [0, 1, 1]
    assert events[1].use == 2
    assert events[1].taken == 1
    assert events[0].taken == 0
    assert (events[1].first_step, events[1].last_step) == (1, 3)
    assert (events[2].first_step, events[2].last_step) == (4, 4)


def test_events_prefix_queries():
    trace = _tiny_trace()
    ev = trace.events()[1]
    assert ev.use_before(0) == 0
    assert ev.use_before(2) == 1
    assert ev.use_before(4) == 2
    assert ev.use_before(5) == 2
    assert [ev.taken_upto(i) for i in range(3)] == [0, 1, 1]
    assert list(ev.steps_at([0, 1])) == [1, 3]
    assert list(ev.steps_at([1, 1, 0])) == [3, 3, 1]
    assert ev.steps_at([]).dtype == np.int32


@pytest.mark.parametrize("needle", [700_001, np.int64(700_001),
                                    np.int32(700_001)],
                         ids=["int", "int64", "int32"])
def test_rank_lookup_does_not_copy_the_index(needle):
    """``use_before`` casts its in-bucket needle to the residues' type:
    searching a ``uint16`` array for a Python int or an int64 would cast
    a whole bucket of it on every call, or, without the bucket table,
    the whole index."""
    n = (1 << 20) + 1
    ev = ExecutionTrace(np.zeros(n, np.int32), np.zeros(n, np.int8),
                        1).events()[0]
    assert ev.steps().dtype == np.int32 and ev.use == n
    tracemalloc.start()
    try:
        assert ev.use_before(needle) == 700_001
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_rank_lookup_rejects_needles_the_index_type_cannot_hold():
    """A float needle is not truncated and an int64 one beyond int32 is
    not wrapped: both raise."""
    ev = _tiny_trace().events()[1]
    assert ev.steps().dtype == np.int32
    with pytest.raises(TypeError):
        ev.use_before(2.5)
    with pytest.raises(OverflowError):
        ev.use_before(np.int64(2**33))


def test_only_use_before_searches_the_index():
    """Every rank lookup on the index's step residues goes through
    ``use_before`` (see the test above), and every search of the
    index's bucket table goes through ``slot_steps``, which casts its
    needles to the table's type: no other line of the package searches
    them."""
    own = inspect.getsource(BlockEvents.use_before)
    select = [inspect.getsource(EventIndex.slot_steps)]
    assert all(".astype(self." in source for source in select)
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            where = f"{path}:{number}: {line}"
            if "searchsorted" not in line:
                continue
            if "_res" in line or "residues" in line:
                assert line.strip() in own, where
            if "_at.searchsorted" in line:
                assert any(line.strip() in source for source in select), \
                    where


def test_ref_index_layout_and_size():
    """gzip's ref index: uint16 residues, int32 bucket tables and
    checkpoints, int8 outcomes (one shared ``bytearray``) only for taken
    blocks, the arrays read-only; ``trace.index_bytes`` counts every buffer
    once, exactly the layout's bytes and at most 2.5 bytes per step."""
    trace = get_benchmark("gzip").scaled(0.05).trace("ref")
    sizes = get_registry().histogram("trace.index_bytes")
    before = sizes.count
    events = trace.events()
    assert sizes.count == before + 1
    index_bytes = sizes.values()[-1]
    counts = trace.counts()
    steps = {b: np.flatnonzero(trace.blocks == b) for b in events}
    buckets = sum(int(s[-1] >> 16) - int(s[0] >> 16) + 1
                  for s in steps.values())
    taken = [b for b in events if counts.taken[b]]
    assert taken and len(taken) < len(events)
    kept = sum(int(counts.use[b]) for b in taken)
    checks = sum(int(counts.use[b]) // 64 + 1 for b in taken)
    assert index_bytes == (2 * trace.num_steps + 4 * (2 * buckets + 1) +
                           kept + 4 * checks)
    assert index_bytes <= 2.5 * trace.num_steps
    assert events.residues.dtype == np.uint16
    assert len(events.residues) == trace.num_steps
    assert len(events.bucket_at) == buckets + 1
    for array in (events.residues, events.bucket_at, events.bucket_base):
        assert not array.flags.writeable
    for array in (events.bucket_at, events.bucket_base):
        assert array.dtype == np.int32
    outcomes = {id(ev._outcomes) for ev in events.values()
                if ev._outcomes is not None}
    assert len(outcomes) == 1
    for block, ev in events.items():
        if counts.taken[block]:
            assert isinstance(ev._outcomes, bytearray)
            assert ev._checks.dtype == np.int32
            assert not ev._checks.flags.writeable
        else:
            assert ev._outcomes is None and ev._checks is None


def test_edge_counts():
    trace = _tiny_trace()
    edges = edge_counts(trace)
    assert edges[(0, 1)] == 2
    assert edges[(1, 0)] == 1
    assert edges[(1, 2)] == 1


def test_empty_trace():
    trace = ExecutionTrace.from_sequences([], [], num_blocks=4)
    assert trace.num_steps == 0
    assert edge_counts(trace) == {}
    assert list(trace.use_counts()) == [0, 0, 0, 0]


def test_validation():
    with pytest.raises(TraceError):
        ExecutionTrace.from_sequences([0, 5], [NO_BRANCH, NO_BRANCH],
                                      num_blocks=3)
    with pytest.raises(TraceError):
        ExecutionTrace(np.zeros(3, np.int32), np.zeros(2, np.int8), 1)


def test_recorder_matches_interpreter_counts(loop_program):
    recorder = TraceRecorder(loop_program.num_blocks())
    interp = Interpreter(loop_program, listener=recorder)
    result = interp.run()
    trace = recorder.trace()
    assert trace.num_steps == result.blocks_executed
    loop_id = interp.block_id("main", "loop")
    assert trace.use_counts()[loop_id] == 5
    assert trace.taken_counts()[loop_id] == 4


def test_use_counts_match_event_index(nested_trace):
    use = nested_trace.use_counts()
    events = nested_trace.events()
    for block, ev in events.items():
        assert use[block] == ev.use
    assert use.sum() == nested_trace.num_steps


class TestValidateAgainstCFG:
    def _cfg(self):
        from repro.cfg import ControlFlowGraph
        return ControlFlowGraph([(1,), (1, 2), ()])

    def test_legal_trace_passes(self):
        from repro.stochastic import walk, ProgramBehavior, steady
        cfg = self._cfg()
        behavior = ProgramBehavior()
        behavior.set(1, steady(0.9))
        trace = walk(cfg, behavior, 500, seed=1)
        validate_against_cfg(trace, cfg)  # no exception

    def test_block_count_mismatch(self):
        trace = ExecutionTrace.from_sequences([0], [NO_BRANCH],
                                              num_blocks=5)
        with pytest.raises(TraceError, match="blocks"):
            validate_against_cfg(trace, self._cfg())

    def test_illegal_transition(self):
        # 0 must fall through to 1, not jump to 2... encode 0 -> 2
        trace = ExecutionTrace.from_sequences(
            [0, 2], [NO_BRANCH, NO_BRANCH], num_blocks=3)
        with pytest.raises(TraceError, match="fall through"):
            validate_against_cfg(trace, self._cfg())

    def test_wrong_branch_direction(self):
        # branch 1 taken must go to 1 (self), recorded going to 2
        trace = ExecutionTrace.from_sequences(
            [0, 1, 2], [NO_BRANCH, 1, NO_BRANCH], num_blocks=3)
        with pytest.raises(TraceError, match="outcome"):
            validate_against_cfg(trace, self._cfg())

    def test_missing_branch_outcome(self):
        trace = ExecutionTrace.from_sequences(
            [0, 1], [NO_BRANCH, NO_BRANCH], num_blocks=3)
        with pytest.raises(TraceError, match="without an"):
            validate_against_cfg(trace, self._cfg())

    def test_spurious_outcome_on_plain_block(self):
        trace = ExecutionTrace.from_sequences([0], [1], num_blocks=3)
        with pytest.raises(TraceError, match="non-branch"):
            validate_against_cfg(trace, self._cfg())

    def test_exit_must_be_last(self):
        trace = ExecutionTrace.from_sequences(
            [2, 0], [NO_BRANCH, NO_BRANCH], num_blocks=3)
        with pytest.raises(TraceError, match="exit"):
            validate_against_cfg(trace, self._cfg())
