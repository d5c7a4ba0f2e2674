"""Execution traces: the block/branch event stream in numpy form.

A trace is the complete record of one program run at block granularity:
``blocks[s]`` is the id of the block executed at step ``s`` and
``taken[s]`` is its branch outcome (1 taken / 0 fall-through / -1 for
blocks without a conditional branch).

Everything the study needs — AVEP, INIP(T) for *any* threshold, the
performance model, profiling-operation accounting — derives from this one
array pair, so each benchmark+input is simulated exactly once and replayed
many times (see :mod:`repro.dbt.replay`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..obs import inc
from ..obs.spans import span

#: sentinel in the taken array for non-branch block executions.
NO_BRANCH = -1

#: Steps per stable argsort when the event index groups a trace by
#: block: the sort's int64 output and scratch stay this size, not two
#: whole-trace arrays next to the index.
_SORT_CHUNK = 1 << 19


class TraceError(ValueError):
    """Raised for malformed or inconsistent traces."""


@dataclass
class BlockEvents:
    """Per-block view of a trace (built once, queried many times).

    Attributes:
        steps: sorted global steps at which the block executed.
        taken_prefix: ``taken_prefix[k]`` = taken outcomes among the first
            ``k`` executions (so ``taken_prefix[len(steps)]`` is the total);
            all zeros for non-branch blocks.
    """

    steps: np.ndarray
    taken_prefix: np.ndarray

    @property
    def use(self) -> int:
        """Total executions of the block in the trace."""
        return int(len(self.steps))

    @property
    def taken(self) -> int:
        """Total taken outcomes of the block's branch in the trace."""
        return int(self.taken_prefix[-1])

    def use_before(self, step: int) -> int:
        """Executions strictly before global ``step``."""
        return int(np.searchsorted(self.steps, step, side="left"))

    def taken_before(self, step: int) -> int:
        """Taken outcomes strictly before global ``step``."""
        return int(self.taken_prefix[self.use_before(step)])

    def step_of_use(self, k: int) -> Optional[int]:
        """Global step of the block's ``k``-th execution (1-based), if any."""
        if 1 <= k <= len(self.steps):
            return int(self.steps[k - 1])
        return None


@dataclass(frozen=True, eq=False)
class RunCounts:
    """Whole-run use/taken counters of one run, without its steps.

    This is everything AVEP reads ("every block's use/taken at program
    end"), so :func:`~repro.profiles.merge.avep_from_trace` accepts it in
    place of an :class:`ExecutionTrace`.  The arrays are read-only.

    Attributes:
        use: executions per block id (int64).
        taken: taken outcomes per block id (int64).
        num_steps: total block executions of the run.
    """

    use: np.ndarray
    taken: np.ndarray
    num_steps: int

    def __post_init__(self) -> None:
        if self.use.shape != self.taken.shape or self.use.ndim != 1:
            raise TraceError("use/taken must be parallel 1-D arrays")
        self.use.flags.writeable = False
        self.taken.flags.writeable = False

    @property
    def num_blocks(self) -> int:
        """Size of the block id space."""
        return len(self.use)

    def use_counts(self) -> np.ndarray:
        """Whole-run use count per block id (the AVEP use counters)."""
        return self.use

    def taken_counts(self) -> np.ndarray:
        """Whole-run taken count per block id (the AVEP taken counters)."""
        return self.taken


class ExecutionTrace:
    """One complete block-level run of a benchmark.

    Args:
        blocks: int array of executed block ids, in order.
        taken: parallel int array of branch outcomes (1/0, or
            :data:`NO_BRANCH` when the block has no conditional branch).
        num_blocks: size of the block id space (ids are ``< num_blocks``).
        counts: the run's whole-run counters, when the recorder already
            has them (the vector walker does); otherwise they are
            counted from the arrays on first use.
    """

    def __init__(self, blocks: np.ndarray, taken: np.ndarray,
                 num_blocks: int, counts: Optional[RunCounts] = None):
        blocks = np.asarray(blocks, dtype=np.int32)
        taken = np.asarray(taken, dtype=np.int8)
        if blocks.shape != taken.shape or blocks.ndim != 1:
            raise TraceError("blocks/taken must be parallel 1-D arrays")
        if len(blocks) and (blocks.min() < 0 or blocks.max() >= num_blocks):
            raise TraceError("block id outside [0, num_blocks)")
        if counts is not None and (counts.num_blocks != num_blocks or
                                   counts.num_steps != len(blocks)):
            raise TraceError("counts do not match the trace's shape")
        self.blocks = blocks
        self.taken = taken
        self.num_blocks = int(num_blocks)
        self._counts = counts
        self._events: Optional[Dict[int, BlockEvents]] = None

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def num_steps(self) -> int:
        """Total block executions recorded."""
        return len(self.blocks)

    # -- aggregate counters ----------------------------------------------------

    def counts(self) -> RunCounts:
        """The whole-run counters, cached.

        A trace recorded by the vector walker carries the walk's own
        counts; any other trace is counted once, with one ``bincount``
        of ``(block << 1) | taken`` over its arrays (counted in
        ``trace.count_passes``).
        """
        if self._counts is None:
            inc("trace.count_passes")
            keys = self.blocks.astype(np.int64) << 1
            keys |= self.taken == 1
            pairs = np.bincount(keys, minlength=2 * self.num_blocks)
            self._counts = RunCounts(
                use=(pairs[0::2] + pairs[1::2]).astype(np.int64),
                taken=pairs[1::2].astype(np.int64),
                num_steps=len(self.blocks))
        return self._counts

    def use_counts(self) -> np.ndarray:
        """Whole-run use count per block id (the AVEP use counters)."""
        return self.counts().use

    def taken_counts(self) -> np.ndarray:
        """Whole-run taken count per block id (the AVEP taken counters)."""
        return self.counts().taken

    def branch_blocks(self) -> np.ndarray:
        """Ids of blocks that executed a conditional branch at least once."""
        has_branch = self.taken != NO_BRANCH
        return np.unique(self.blocks[has_branch])

    # -- per-block event index ---------------------------------------------------

    def events(self) -> Dict[int, BlockEvents]:
        """Per-block event index, built on first use and cached.

        Only the replay and pricing consumers of the *ref* trace read it,
        so a trace that is only counted (``use_counts`` /
        ``taken_counts``) never pays for it.
        """
        if self._events is None:
            with span("trace.index", steps=len(self.blocks)):
                self._events = self._build_events()
            inc("trace.index_builds")
        return self._events

    def _build_events(self) -> Dict[int, BlockEvents]:
        """Group the steps by block with stable per-chunk argsorts.

        Ids are narrowed to the smallest unsigned width holding
        ``num_blocks`` (checked in ``__init__``); for 8/16-bit keys
        numpy's stable sort is an O(N) radix sort.  Each chunk of
        :data:`_SORT_CHUNK` steps is sorted on its own and its runs are
        appended to their blocks' slices of one shared ``order`` array,
        which the cached whole-run counts lay out up front; so the sort's
        scratch stays chunk-sized and no pass counts the steps again.
        Every block's ``steps`` is a read-only view of ``order``.
        """
        keys = self.blocks
        if self.num_blocks <= 1 << 8:
            keys = keys.astype(np.uint8)
        elif self.num_blocks <= 1 << 16:
            keys = keys.astype(np.uint16)
        counts = self.use_counts()
        ends = np.cumsum(counts)
        fill = ends - counts  # next free slot of each block's slice
        order = np.empty(len(keys), dtype=np.int64)
        inner = np.arange(1, self.num_blocks, dtype=keys.dtype)
        for lo in range(0, len(keys), _SORT_CHUNK):
            part = keys[lo:lo + _SORT_CHUNK]
            perm = np.argsort(part, kind="stable")
            # Where each block's run starts in the sorted chunk.
            bounds = np.empty(self.num_blocks + 1, dtype=np.int64)
            bounds[0] = 0
            bounds[1:-1] = np.searchsorted(part[perm], inner)
            bounds[-1] = len(part)
            perm += lo
            for bid in np.flatnonzero(np.diff(bounds)).tolist():
                a, b = bounds[bid], bounds[bid + 1]
                order[fill[bid]:fill[bid] + b - a] = perm[a:b]
                fill[bid] += b - a
        order.flags.writeable = False
        has_taken = self.taken_counts() > 0
        events: Dict[int, BlockEvents] = {}
        for bid in np.flatnonzero(counts).tolist():
            steps = order[ends[bid] - counts[bid]:ends[bid]]
            prefix = np.zeros(len(steps) + 1, dtype=np.int64)
            if has_taken[bid]:
                np.cumsum(self.taken[steps] == 1, out=prefix[1:])
            events[bid] = BlockEvents(steps=steps, taken_prefix=prefix)
        return events

    def edge_counts(self) -> Dict[Tuple[int, int], int]:
        """Dynamic traversal count of every executed control-flow edge."""
        if len(self.blocks) < 2:
            return {}
        src = self.blocks[:-1]
        dst = self.blocks[1:]
        pairs = src.astype(np.int64) * self.num_blocks + dst
        unique, counts = np.unique(pairs, return_counts=True)
        return {(int(p // self.num_blocks), int(p % self.num_blocks)):
                int(c) for p, c in zip(unique, counts)}

    def validate_against_cfg(self, cfg) -> None:
        """Check the trace is a legal walk of ``cfg``.

        Raises :class:`TraceError` if block counts disagree, any recorded
        transition does not follow a CFG edge, or a branch outcome is
        recorded for a non-branch block (and vice versa).  The replay DBT
        and the analysis assume these invariants; validating externally
        sourced traces up front turns silent corruption into a loud
        error.
        """
        if cfg.num_nodes != self.num_blocks:
            raise TraceError(
                f"trace has {self.num_blocks} blocks, CFG has "
                f"{cfg.num_nodes}")
        for i in range(len(self.blocks)):
            block = int(self.blocks[i])
            outcome = int(self.taken[i])
            is_branch = cfg.is_branch(block)
            if is_branch and outcome == NO_BRANCH:
                raise TraceError(
                    f"step {i}: branch block {block} recorded without an "
                    "outcome")
            if not is_branch and outcome != NO_BRANCH:
                raise TraceError(
                    f"step {i}: non-branch block {block} recorded with "
                    f"outcome {outcome}")
            if i + 1 < len(self.blocks):
                nxt = int(self.blocks[i + 1])
                succ = cfg.successors(block)
                if is_branch:
                    expected = succ[0] if outcome == 1 else succ[1]
                    if nxt != expected:
                        raise TraceError(
                            f"step {i}: branch block {block} with outcome "
                            f"{outcome} must go to {expected}, trace goes "
                            f"to {nxt}")
                elif succ and nxt != succ[0]:
                    raise TraceError(
                        f"step {i}: block {block} must fall through to "
                        f"{succ[0]}, trace goes to {nxt}")
                elif not succ:
                    raise TraceError(
                        f"step {i}: exit block {block} is not last in the "
                        "trace")

    # -- persistence -------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist to ``path`` (.npz)."""
        np.savez_compressed(path, blocks=self.blocks, taken=self.taken,
                            num_blocks=np.int64(self.num_blocks))

    @classmethod
    def load(cls, path: str) -> "ExecutionTrace":
        """Load a trace previously stored with :meth:`save`."""
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        data = np.load(path)
        return cls(data["blocks"], data["taken"],
                   int(data["num_blocks"]))

    @classmethod
    def from_sequences(cls, blocks: Sequence[int], taken: Sequence[int],
                       num_blocks: int) -> "ExecutionTrace":
        """Build a trace from plain Python sequences (tests, examples)."""
        return cls(np.asarray(blocks, dtype=np.int32),
                   np.asarray(taken, dtype=np.int8), num_blocks)
