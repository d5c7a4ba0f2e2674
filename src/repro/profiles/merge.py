"""Building AVEP from a run's counts."""

from __future__ import annotations

from typing import Union

from ..stochastic.trace import ExecutionTrace, RunCounts
from .model import BlockProfile, ProfileSnapshot


def avep_from_trace(trace: Union[ExecutionTrace, RunCounts],
                    input_name: str = "ref",
                    label: str = "AVEP") -> ProfileSnapshot:
    """Build the average-behaviour profile of a whole run.

    This is the paper's AVEP: run without optimisation, output every
    block's use/taken at program end.  Profiling operations = one per use
    plus one per taken increment.  Only the whole-run counters are read,
    so a count-only :class:`~repro.stochastic.trace.RunCounts` works as
    well as a recorded trace.
    """
    use = trace.use_counts()
    taken = trace.taken_counts()
    snapshot = ProfileSnapshot(
        label=label, input_name=input_name, threshold=None,
        total_steps=trace.num_steps,
        profiling_ops=int(use.sum() + taken.sum()))
    for block_id in range(trace.num_blocks):
        if use[block_id] > 0:
            snapshot.blocks[block_id] = BlockProfile(
                block_id=block_id, use=int(use[block_id]),
                taken=int(taken[block_id]))
    return snapshot

