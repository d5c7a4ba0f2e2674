"""Execution-trace structure tests."""

import inspect
import pathlib
import tracemalloc

import numpy as np
import pytest

import repro
from repro.interp import Interpreter
from repro.obs.registry import counter_value, get_registry
from repro.stochastic import (NO_BRANCH, BlockEvents, ExecutionTrace,
                              RunCounts, TraceError, TraceRecorder)
from repro.workloads import get_benchmark


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
    assert list(trace.events()[1].taken_prefix) == [0, 1, 1]
    assert counter_value("trace.count_passes") == passes
    with pytest.raises(TraceError):
        ExecutionTrace(trace.blocks[:4], trace.taken[:4], 3, counts=counts)


def test_events_index():
    trace = _tiny_trace()
    events = trace.events()
    assert list(events[1].steps) == [1, 3]
    assert list(events[1].taken_prefix) == [0, 1, 1]
    assert events[1].use == 2
    assert events[1].taken == 1
    assert events[0].taken == 0


def test_events_prefix_queries():
    trace = _tiny_trace()
    ev = trace.events()[1]
    assert ev.use_before(0) == 0
    assert ev.use_before(2) == 1
    assert ev.use_before(4) == 2
    assert ev.taken_before(1) == 0
    assert ev.taken_before(2) == 1
    assert ev.taken_before(4) == 1
    assert ev.step_of_use(1) == 1
    assert ev.step_of_use(2) == 3
    assert ev.step_of_use(3) is None
    assert ev.step_of_use(0) is None


@pytest.mark.parametrize("needle", [700_001, np.int64(700_001),
                                    np.int32(700_001)],
                         ids=["int", "int64", "int32"])
def test_rank_lookup_does_not_copy_the_index(needle):
    """``use_before`` casts its needle to the index's type: searching an
    int32 array for a Python int or an int64 would cast all of it (4 MB
    here) on every call."""
    n = (1 << 20) + 1
    ev = ExecutionTrace(np.zeros(n, np.int32), np.zeros(n, np.int8),
                        1).events()[0]
    assert ev.steps.dtype == np.int32 and len(ev.steps) == n
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
    assert ev.steps.dtype == np.int32
    with pytest.raises(TypeError):
        ev.use_before(2.5)
    with pytest.raises(OverflowError):
        ev.use_before(np.int64(2**33))


def test_only_use_before_searches_the_index():
    """Every rank lookup on a ``BlockEvents.steps`` goes through
    ``use_before`` (see the test above): no other line of the package
    searches an array of steps."""
    own = inspect.getsource(BlockEvents.use_before)
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if "searchsorted" in line and "steps" in line:
                assert line.strip() in own, f"{path}:{number}: {line}"


def test_ref_index_layout_and_size():
    """gzip's ref index: int32 steps and prefixes, all read-only; never
    taken blocks view one shared zero prefix; ``trace.index_bytes``
    counts every buffer once, at most 6 bytes per step (16 with int64
    steps and a prefix per block)."""
    trace = get_benchmark("gzip").scaled(0.05).trace("ref")
    sizes = get_registry().histogram("trace.index_bytes")
    before = sizes.count
    events = trace.events()
    assert sizes.count == before + 1
    index_bytes = sizes.values()[-1]
    counts = trace.counts()
    taken = [b for b in events if counts.taken[b]]
    never = [b for b in events if not counts.taken[b]]
    zeros = events[never[0]].taken_prefix.base
    assert taken and zeros is not None and not zeros.any()
    assert all(events[b].taken_prefix.base is zeros for b in never)
    longest = max(int(counts.use[b]) for b in never)
    assert index_bytes == 4 * (trace.num_steps + longest + 1 +
                               sum(int(counts.use[b]) + 1 for b in taken))
    assert index_bytes <= 6 * trace.num_steps
    for ev in events.values():
        for array in (ev.steps, ev.taken_prefix):
            assert array.dtype == np.int32
            assert not array.flags.writeable


def test_edge_counts():
    trace = _tiny_trace()
    edges = trace.edge_counts()
    assert edges[(0, 1)] == 2
    assert edges[(1, 0)] == 1
    assert edges[(1, 2)] == 1


def test_empty_trace():
    trace = ExecutionTrace.from_sequences([], [], num_blocks=4)
    assert trace.num_steps == 0
    assert trace.edge_counts() == {}
    assert list(trace.use_counts()) == [0, 0, 0, 0]


def test_validation():
    with pytest.raises(TraceError):
        ExecutionTrace.from_sequences([0, 5], [NO_BRANCH, NO_BRANCH],
                                      num_blocks=3)
    with pytest.raises(TraceError):
        ExecutionTrace(np.zeros(3, np.int32), np.zeros(2, np.int8), 1)


def test_save_load_roundtrip(tmp_path):
    trace = _tiny_trace()
    path = str(tmp_path / "trace.npz")
    trace.save(path)
    loaded = ExecutionTrace.load(path)
    assert np.array_equal(loaded.blocks, trace.blocks)
    assert np.array_equal(loaded.taken, trace.taken)
    assert loaded.num_blocks == trace.num_blocks


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ExecutionTrace.load(str(tmp_path / "nope.npz"))


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
        trace.validate_against_cfg(cfg)  # no exception

    def test_block_count_mismatch(self):
        trace = ExecutionTrace.from_sequences([0], [NO_BRANCH],
                                              num_blocks=5)
        with pytest.raises(TraceError, match="blocks"):
            trace.validate_against_cfg(self._cfg())

    def test_illegal_transition(self):
        # 0 must fall through to 1, not jump to 2... encode 0 -> 2
        trace = ExecutionTrace.from_sequences(
            [0, 2], [NO_BRANCH, NO_BRANCH], num_blocks=3)
        with pytest.raises(TraceError, match="fall through"):
            trace.validate_against_cfg(self._cfg())

    def test_wrong_branch_direction(self):
        # branch 1 taken must go to 1 (self), recorded going to 2
        trace = ExecutionTrace.from_sequences(
            [0, 1, 2], [NO_BRANCH, 1, NO_BRANCH], num_blocks=3)
        with pytest.raises(TraceError, match="outcome"):
            trace.validate_against_cfg(self._cfg())

    def test_missing_branch_outcome(self):
        trace = ExecutionTrace.from_sequences(
            [0, 1], [NO_BRANCH, NO_BRANCH], num_blocks=3)
        with pytest.raises(TraceError, match="without an"):
            trace.validate_against_cfg(self._cfg())

    def test_spurious_outcome_on_plain_block(self):
        trace = ExecutionTrace.from_sequences([0], [1], num_blocks=3)
        with pytest.raises(TraceError, match="non-branch"):
            trace.validate_against_cfg(self._cfg())

    def test_exit_must_be_last(self):
        trace = ExecutionTrace.from_sequences(
            [2, 0], [NO_BRANCH, NO_BRANCH], num_blocks=3)
        with pytest.raises(TraceError, match="exit"):
            trace.validate_against_cfg(self._cfg())
