"""Execution traces: the block/branch event stream in numpy form.

A trace is the complete record of one program run at block granularity:
``blocks[s]`` is the id of the block executed at step ``s`` and
``taken[s]`` is its branch outcome (1 taken / 0 fall-through / -1 for
blocks without a conditional branch).

Everything the study needs — AVEP, INIP(T) for *any* threshold, the
performance model, profiling-operation accounting — derives from this one
record, so each benchmark+input is simulated exactly once and replayed
many times (see :mod:`repro.dbt.replay`).

A trace recorded by the vector walker keeps its run as a
:class:`DecisionLog` instead of per-step arrays: one segment start and
one branch outcome per decision, plus the undecided tail.  Its per-block
event index is built straight from the log (each segment's blocks at
fixed offsets from the segment's start step), and ``blocks``/``taken``
are decoded only if something reads them (counted in
``trace.decodes``).  Traces built from arrays (the scalar walker,
:meth:`ExecutionTrace.load`, :meth:`ExecutionTrace.from_sequences`) are
indexed by a radix argsort of their block ids.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import inc, observe
from ..obs.spans import span

#: sentinel in the taken array for non-branch block executions.
NO_BRANCH = -1

#: Steps per stable argsort when the event index groups a trace by
#: block: the sort's int64 output and scratch stay this size, not two
#: whole-trace arrays next to the index.
_SORT_CHUNK = 1 << 19


def step_dtype(num_steps: int) -> type:
    """The event index's integer type for a run of ``num_steps`` steps.

    int32 holds every step, use count and taken count of a run shorter
    than ``2**31 - 1`` steps (the step ``num_steps`` itself included);
    a longer run is indexed in int64.
    """
    return np.int32 if num_steps < 2**31 - 1 else np.int64


class TraceError(ValueError):
    """Raised for malformed or inconsistent traces."""


@dataclass
class BlockEvents:
    """Per-block view of a trace (built once, queried many times).

    Attributes:
        steps: sorted global steps at which the block executed.
        taken_prefix: ``taken_prefix[k]`` = taken outcomes among the first
            ``k`` executions (so ``taken_prefix[len(steps)]`` is the total);
            all zeros for a block that is never taken.

    Both arrays are read-only and of the run's :func:`step_dtype`.
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
        """Executions strictly before global ``step`` (any step of the
        run, or its length).

        The needle is cast to the index's type first: searching an int32
        array for a Python int or an int64 casts the whole array.  It
        goes through ``operator.index`` so that a float raises instead
        of truncating, and an integer out of the type's range raises
        instead of wrapping.
        """
        needle = self.steps.dtype.type(operator.index(step))
        return int(self.steps.searchsorted(needle))

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


@dataclass(frozen=True, eq=False)
class SegmentTable:
    """A CFG's straight-line segments, compiled once per walker.

    Segment ``v`` is the chain from block ``v`` through single-successor
    blocks up to and including its terminal branch, or up to an exit, or
    into a branch-free cycle.  Its blocks are distinct.

    Attributes:
        length: int32 blocks per segment.
        offset: int32 start of each segment's blocks in ``flat``.
        flat: int32 concatenation of every segment's blocks.
        branch: int64 terminal branch per segment; negative when the
            segment ends at an exit or enters a branch-free cycle.
        cycle_at: per segment, the index in its blocks where its
            branch-free cycle begins (``-1`` without one).
        successors: int32 ``(num_blocks, 2)`` table of each block's
            successor by outcome: column 1 the taken one, column 0 the
            fall-through or only one; ``-1`` at exits.
    """

    length: np.ndarray
    offset: np.ndarray
    flat: np.ndarray
    branch: np.ndarray
    cycle_at: List[int]
    successors: np.ndarray

    def blocks(self, v: int) -> np.ndarray:
        """Blocks of segment ``v``, in order."""
        lo = int(self.offset[v])
        return self.flat[lo:lo + int(self.length[v])]

    def tail(self, v: int, steps: int) -> List[Tuple[int, range]]:
        """Where each block runs when a walk follows segment ``v`` for
        ``steps`` steps: ``(block, offsets)`` pairs, the offsets counted
        from the segment's first step.

        Past the segment's end the walk goes round its branch-free cycle,
        so a cycle block's offsets repeat every cycle length.
        """
        if v < 0:
            return []
        at = self.cycle_at[v]
        path = self.blocks(v).tolist()
        return [(block, range(k, steps, len(path) - at) if 0 <= at <= k
                 else range(k, k + 1))
                for k, block in enumerate(path[:steps])]


@dataclass(frozen=True, eq=False)
class DecisionLog:
    """A walk recorded as its decisions instead of its steps.

    Decision ``i`` runs segment ``starts[i]`` (which ends at a branch)
    and resolves that branch to ``outcomes[i]``; the segments follow each
    other step for step.  After the last decision the walk follows
    segment ``tail_start`` for ``tail_steps`` steps without deciding: a
    prefix cut by the step budget, an exit segment, or a branch-free
    cycle (``tail_start`` is ``-1`` when there is no tail).

    Attributes:
        segments: the walker's segment table.
        starts: segment start per decision, in the narrowest unsigned
            type holding every block id.
        outcomes: int8 branch outcome per decision.
        tail_start, tail_steps: the undecided tail.
        per_start: int64 decisions per segment start, over every block
            id (``np.bincount(starts, minlength=num_blocks)``), as the
            walker tallied them.
    """

    segments: SegmentTable
    starts: np.ndarray
    outcomes: np.ndarray
    tail_start: int
    tail_steps: int
    per_start: np.ndarray

    def decode(self, num_steps: int) -> Tuple[np.ndarray, np.ndarray]:
        """The per-step ``blocks``/``taken`` arrays of the logged walk."""
        seg = self.segments
        starts = self.starts
        lens = seg.length[starts]
        ends = np.cumsum(lens)
        decided = num_steps - self.tail_steps
        blocks = np.empty(num_steps, dtype=np.int32)
        taken = np.full(num_steps, NO_BRANCH, dtype=np.int8)
        if decided:
            # Ragged gather index: +1 inside a segment, and at each
            # segment start a jump from the previous segment's last flat
            # offset to this one's first, all summed in place.
            idx = np.ones(decided, dtype=np.int32)
            offs = seg.offset[starts]
            idx[0] = offs[0]
            idx[ends[:-1]] = offs[1:] - (offs[:-1] + lens[:-1] - 1)
            np.cumsum(idx, dtype=np.int32, out=idx)
            seg.flat.take(idx, out=blocks[:decided])
            taken[ends - 1] = self.outcomes
        for block, at in seg.tail(self.tail_start, self.tail_steps):
            blocks[decided + at.start:decided + at.stop:at.step] = block
        return blocks, taken

    def events(self, counts: RunCounts) -> Dict[int, BlockEvents]:
        """The per-block event index of the logged walk.

        Decision ``i`` starts at the sum of the lengths of the segments
        before it, and block ``b`` at offset ``k`` of segment ``v`` runs
        at that start plus ``k`` for every decision of ``v``.  One stable
        (radix, for 8/16-bit starts) argsort groups the decisions by
        segment; each segment's start steps, plus each offset, fill its
        blocks' slices of one shared ``order`` array laid out from the
        whole-run counts; the decisions per segment are the walker's
        ``per_start`` tally, so no pass over the log counts them.  A
        block in several segments (a join) merges its sorted runs with
        one stable sort, of ``step << 1 | outcome`` (int32 up to 2**30
        steps, else int64) when the block is a branch, whose int8
        outcomes give ``taken_prefix``.  The tail's steps, the last of
        the run, close each slice.
        """
        seg = self.segments
        starts = self.starts
        num_steps = counts.num_steps
        use = counts.use
        dtype = step_dtype(num_steps)
        pos = np.zeros(len(starts), dtype=dtype)
        np.cumsum(seg.length[starts[:-1]], out=pos[1:])
        perm = np.argsort(starts, kind="stable")
        pos = pos[perm]
        outcomes = self.outcomes[perm]
        del perm
        ends = np.cumsum(use)
        fill = ends - use  # next free slot of each block's slice
        order = np.empty(num_steps, dtype=dtype)
        runs: Dict[int, List[Tuple[int, int]]] = {}
        per_start = self.per_start
        group_end = np.cumsum(per_start)
        for v in np.flatnonzero(per_start).tolist():
            hi = int(group_end[v])
            lo = hi - int(per_start[v])
            for k, block in enumerate(seg.blocks(v).tolist()):
                f = fill[block]
                np.add(pos[lo:hi], k, out=order[f:f + hi - lo])
                fill[block] = f + hi - lo
                runs.setdefault(block, []).append((lo, hi))
        del pos
        taken_of: Dict[int, np.ndarray] = {}
        # ``step << 1 | 1`` of the run's last step fits int32 up to
        # 2**30 steps.
        key_type = np.int32 if num_steps <= 2**30 else np.int64
        for block, parts in runs.items():
            is_branch = seg.branch[block] == block
            if len(parts) == 1:
                if is_branch:
                    taken_of[block] = outcomes[parts[0][0]:parts[0][1]]
                continue
            steps = order[ends[block] - use[block]:fill[block]]
            if is_branch:
                keys = np.left_shift(steps, 1, dtype=key_type)
                keys |= np.concatenate([outcomes[lo:hi] for lo, hi in parts])
                keys.sort(kind="stable")
                np.right_shift(keys, 1, out=steps)
                taken_of[block] = (keys & 1).astype(np.int8)
            else:
                steps.sort(kind="stable")
        decided = num_steps - self.tail_steps
        for block, at in seg.tail(self.tail_start, self.tail_steps):
            f = fill[block]
            order[f:f + len(at)] = np.arange(decided + at.start,
                                             decided + at.stop, at.step)
            fill[block] = f + len(at)
        return _block_events(order, counts,
                             lambda block, steps: taken_of[block])


def _block_events(order: np.ndarray, counts: RunCounts,
                  outcomes: Callable[[int, np.ndarray], np.ndarray]
                  ) -> Dict[int, BlockEvents]:
    """Cut the by-block ``order`` of a run's steps into its event index.

    ``order`` holds each executed block's steps, sorted, in block order,
    as laid out by ``counts``.  A block that is taken at least once gets
    its own ``taken_prefix``, the running sum of ``outcomes(block,
    steps)`` (its 0/1 outcomes in step order); every other block gets a
    view of one zero array.  All of it is read-only and of ``order``'s
    type; its bytes, each buffer counted once, go to
    ``trace.index_bytes``.
    """
    use = counts.use
    ends = np.cumsum(use)
    taken = counts.taken > 0
    zeros = np.zeros(int(use[~taken].max(initial=0)) + 1, dtype=order.dtype)
    zeros.flags.writeable = False
    order.flags.writeable = False
    nbytes = order.nbytes + zeros.nbytes
    events: Dict[int, BlockEvents] = {}
    for block in np.flatnonzero(use).tolist():
        steps = order[ends[block] - use[block]:ends[block]]
        if taken[block]:
            prefix = np.zeros(len(steps) + 1, dtype=order.dtype)
            np.cumsum(outcomes(block, steps), dtype=order.dtype,
                      out=prefix[1:])
            prefix.flags.writeable = False
            nbytes += prefix.nbytes
        else:
            prefix = zeros[:len(steps) + 1]
        events[block] = BlockEvents(steps=steps, taken_prefix=prefix)
    observe("trace.index_bytes", nbytes)
    return events


class ExecutionTrace:
    """One complete block-level run of a benchmark.

    Args:
        blocks: int array of executed block ids, in order.
        taken: parallel int array of branch outcomes (1/0, or
            :data:`NO_BRANCH` when the block has no conditional branch).
        num_blocks: size of the block id space (ids are ``< num_blocks``).
        counts: the run's whole-run counters, when the recorder already
            has them; otherwise they are counted from the arrays on
            first use.

    The vector walker records through :meth:`from_log` instead, and the
    arrays of such a trace are decoded from its log on first read.
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
        self._blocks: Optional[np.ndarray] = blocks
        self._taken: Optional[np.ndarray] = taken
        self._log: Optional[DecisionLog] = None
        self.num_blocks = int(num_blocks)
        self._num_steps = len(blocks)
        self._counts = counts
        self._events: Optional[Dict[int, BlockEvents]] = None
        self._successors: Optional[np.ndarray] = None

    @classmethod
    def from_log(cls, log: DecisionLog, counts: RunCounts
                 ) -> "ExecutionTrace":
        """A trace kept as its walker's decision log and counts."""
        trace = cls.__new__(cls)
        trace._blocks = trace._taken = None
        trace._log = log
        trace.num_blocks = counts.num_blocks
        trace._num_steps = counts.num_steps
        trace._counts = counts
        trace._events = None
        return trace

    def __len__(self) -> int:
        return self._num_steps

    @property
    def num_steps(self) -> int:
        """Total block executions recorded."""
        return self._num_steps

    @property
    def blocks(self) -> np.ndarray:
        """int32 block id per step (decoded from the log on first read)."""
        if self._blocks is None:
            self._decode()
        return self._blocks

    @property
    def taken(self) -> np.ndarray:
        """int8 branch outcome per step (decoded from the log on first
        read)."""
        if self._taken is None:
            self._decode()
        return self._taken

    def _decode(self) -> None:
        inc("trace.decodes")
        self._blocks, self._taken = self._log.decode(self._num_steps)

    @property
    def successors(self) -> np.ndarray:
        """The ``(num_blocks, 2)`` successor table (see
        :class:`SegmentTable`): a walker trace's is its walker's, an
        array trace's is derived once from its arrays, ``-1`` where no
        step leaves a block under an outcome.

        Raises :class:`TraceError` if an array trace leaves one block
        to two different successors under the same outcome.
        """
        if self._log is not None:
            return self._log.segments.successors
        if self._successors is None:
            self._successors = self._derive_successors()
        return self._successors

    def _derive_successors(self) -> np.ndarray:
        table = np.full(2 * self.num_blocks, -1, dtype=np.int32)
        nxt = self.blocks[1:]
        key = self.blocks[:-1].astype(np.int64) << 1
        key |= self.taken[:-1] == 1
        table[key] = nxt
        clash = np.flatnonzero(table[key] != nxt)
        if len(clash):
            block, taken = divmod(int(key[clash[0]]), 2)
            raise TraceError(
                f"block {block} leaves to two different successors with "
                f"outcome {'taken' if taken else 'not taken'}")
        return table.reshape(self.num_blocks, 2)

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
        ``taken_counts``) never pays for it.  A logged trace builds it
        from its decision log without decoding its steps.
        """
        if self._events is None:
            with span("trace.index", steps=self.num_steps):
                if self._log is not None:
                    self._events = self._log.events(self.counts())
                else:
                    self._events = self._build_events()
            inc("trace.index_builds")
        return self._events

    def _build_events(self) -> Dict[int, BlockEvents]:
        """Group an array trace's steps by block with stable per-chunk
        argsorts.

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
        fill = np.cumsum(counts) - counts  # next free slot of each slice
        order = np.empty(len(keys), dtype=step_dtype(len(keys)))
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
        taken = self.taken
        return _block_events(order, self.counts(),
                             lambda block, steps: taken[steps] == 1)

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
