"""Profile set operations: building AVEP from traces, diffing snapshots."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

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


@dataclass
class BlockDelta:
    """Branch-probability difference of one block across two profiles."""

    block_id: int
    bp_left: Optional[float]
    bp_right: Optional[float]
    weight: int

    @property
    def abs_difference(self) -> Optional[float]:
        """|left - right| when both sides have a probability."""
        if self.bp_left is None or self.bp_right is None:
            return None
        return abs(self.bp_left - self.bp_right)


def diff_branch_probabilities(left: ProfileSnapshot, right: ProfileSnapshot,
                              weight_from: Optional[ProfileSnapshot] = None
                              ) -> List[BlockDelta]:
    """Per-block BP deltas between two profiles.

    Blocks present in either snapshot are reported; weights default to the
    right snapshot's use counts (AVEP weighting, as in the paper).
    """
    weight_source = weight_from or right
    block_ids = sorted(set(left.blocks) | set(right.blocks))
    out: List[BlockDelta] = []
    for block_id in block_ids:
        out.append(BlockDelta(
            block_id=block_id,
            bp_left=left.branch_probability(block_id),
            bp_right=right.branch_probability(block_id),
            weight=weight_source.block_frequency(block_id)))
    return out


def hottest_blocks(snapshot: ProfileSnapshot, count: int = 10
                   ) -> List[Tuple[int, int]]:
    """The ``count`` most frequently executed blocks as (id, use) pairs."""
    ranked = sorted(snapshot.blocks.values(), key=lambda b: -b.use)
    return [(b.block_id, b.use) for b in ranked[:count]]
