"""AVEP construction tests."""

from repro.profiles import avep_from_trace
from repro.stochastic import NO_BRANCH, ExecutionTrace


def _trace():
    return ExecutionTrace.from_sequences(
        blocks=[0, 1, 2, 1, 2, 1, 3],
        taken=[NO_BRANCH, 1, NO_BRANCH, 1, NO_BRANCH, 0, NO_BRANCH],
        num_blocks=4)


def test_avep_counts():
    avep = avep_from_trace(_trace())
    assert avep.label == "AVEP"
    assert avep.threshold is None
    assert avep.blocks[1].use == 3
    assert avep.blocks[1].taken == 2
    assert avep.total_steps == 7
    # ops = sum(use) + sum(taken) = 7 + 2
    assert avep.profiling_ops == 9
    assert not avep.regions


def test_avep_skips_unexecuted_blocks():
    trace = ExecutionTrace.from_sequences([0], [NO_BRANCH], num_blocks=5)
    avep = avep_from_trace(trace)
    assert set(avep.blocks) == {0}
