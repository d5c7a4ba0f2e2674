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
event index is built straight from the log, chunk by chunk in time
order (each segment's blocks at fixed offsets from the segment's start
step), and ``blocks``/``taken`` are decoded only if something reads them
(counted in ``trace.decodes``).  Traces built from arrays (the scalar
walker, :meth:`ExecutionTrace.from_sequences`) are indexed by per-chunk
radix argsorts of their block ids.  Both lay out the same
:class:`EventIndex`: per block, a rank/select store of 16-bit step
residues, a per-bucket table and, for a block taken at least once, its
outcomes with a taken-count checkpoint every 64 executions
(:class:`BlockEvents`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import inc, observe
from ..obs.spans import span

#: sentinel in the taken array for non-branch block executions.
NO_BRANCH = -1

#: Steps per stable argsort when the event index groups an array trace
#: by block: the sort's int64 output and scratch stay this size, not
#: two whole-trace arrays next to the index.
_SORT_CHUNK = 1 << 19

#: Decisions per time-ordered chunk when the event index is built from
#: a decision log.  Steps in one chunk all come before those of the
#: next, so a join block's runs are merged within a chunk, and the
#: chunk's start steps, sort order and merge keys are all the scratch
#: the build holds next to the index.  Smaller chunks lower the build's
#: peak and cost Python iterations (docs/performance.md, "The index
#: layout").
_INDEX_CHUNK = 1 << 17

#: A step is ``(bucket << BUCKET_BITS) | residue``: the index keeps every
#: execution's 16-bit residue and, per block, where each bucket starts.
BUCKET_BITS = 16

#: Executions between two taken-count checkpoints of a taken block.
_CHECK_BITS = 6


def step_dtype(num_steps: int) -> type:
    """The event index's integer type for a run of ``num_steps`` steps.

    int32 holds every step, use count and taken count of a run shorter
    than ``2**31 - 1`` steps (the step ``num_steps`` itself included);
    a longer run is indexed in int64.
    """
    return np.int32 if num_steps < 2**31 - 1 else np.int64


class TraceError(ValueError):
    """Raised for malformed or inconsistent traces."""


class BlockEvents:
    """One block's executions in the event index, as a rank/select store.

    The replay asks a block two things: how many of its executions (and
    how many taken ones) come before a step, and at which step its
    ``i``-th execution runs.  The store answers both without a full
    step per execution:

    * **steps**: the low :data:`BUCKET_BITS` bits of every step, as a
      ``uint16`` view of the index's shared residue array, plus a small
      table of where each ``2**16``-step bucket starts in it, from the
      block's first bucket to its last (its slice of the index's
      ``bucket_at``);
    * **taken counts**: for a block taken at least once, its int8
      outcomes in step order (a slice of the index's shared
      ``bytearray``) and the taken count before every 64th execution.

    The index's bucket table and the checkpoints are of the run's
    :func:`step_dtype`, and so are decoded steps; the arrays are
    read-only, and nothing writes the outcomes once the index is built.

    Attributes:
        use: executions of the block in the trace.
        taken: taken outcomes of its branch in the trace.
        first_step, last_step: steps of its first and last execution.
    """

    __slots__ = ("use", "taken", "first_step", "last_step", "_res",
                 "_starts", "_b0", "_type", "_outcomes", "_out_off",
                 "_checks")

    def __init__(self, residues: np.ndarray, offset: int, at: np.ndarray,
                 first_bucket: int, outcomes: Optional[bytearray],
                 out_offset: int, checks: Optional[np.ndarray]):
        self.use = int(at[-1]) - offset
        self._res = residues[offset:offset + self.use]
        # The block's slice of the index's bucket table, counted from
        # its first execution, as Python ints: a rank lookup reads two
        # of them, and a numpy scalar read costs more than the search.
        self._starts = tuple(start - offset for start in at.tolist())
        self._b0 = first_bucket
        self._type = at.dtype.type
        self._outcomes = outcomes
        self._out_off = out_offset
        self._checks = checks
        self.taken = 0 if checks is None else self.taken_upto(self.use)
        self.first_step = (first_bucket << BUCKET_BITS) | int(self._res[0])
        self.last_step = ((first_bucket + len(at) - 2) << BUCKET_BITS |
                          int(self._res[-1]))

    def use_before(self, step: int) -> int:
        """Executions strictly before global ``step`` (any step of the
        run, or its length): one bucket table read and one search inside
        that bucket.

        The needle goes through ``operator.index``, so that a float
        raises instead of truncating, and outside the block's buckets
        through the index's type, so that an integer out of the type's
        range raises instead of wrapping.  The in-bucket needle is cast
        to ``uint16`` first, since searching a ``uint16`` array for a
        wider integer casts the whole array.
        """
        needle = operator.index(step)
        starts = self._starts
        j = (needle >> BUCKET_BITS) - self._b0
        if 0 <= j < len(starts) - 1:
            lo = starts[j]
            low = np.uint16(needle & 0xFFFF)
            return lo + int(self._res[lo:starts[j + 1]].searchsorted(low))
        self._type(needle)
        return 0 if j < 0 else self.use

    def taken_upto(self, i: int) -> int:
        """Taken outcomes among the block's first ``i`` executions
        (``0 <= i <= use``)."""
        if self._checks is None:
            return 0
        c = i >> _CHECK_BITS
        o = self._out_off
        return int(self._checks[c]) + self._outcomes.count(
            1, o + (c << _CHECK_BITS), o + i)

    def steps_at(self, indices) -> np.ndarray:
        """Steps of the block's executions at the 0-based ``indices``
        (each in ``[0, use)``), in the index's type."""
        indices = np.asarray(indices, dtype=np.int64)
        bucket = np.searchsorted(self._starts, indices, "right")
        bucket += self._b0 - 1
        return ((bucket << BUCKET_BITS) | self._res[indices]).astype(
            self._type)

    def steps(self) -> np.ndarray:
        """Every execution's step, in order (decoded on each call)."""
        return self.steps_at(np.arange(self.use))

    def taken_prefix(self) -> np.ndarray:
        """``taken_prefix()[i]`` = taken outcomes among the first ``i``
        executions, for ``i`` in ``0..use`` (decoded on each call)."""
        prefix = np.zeros(self.use + 1, dtype=self._type)
        if self._outcomes is not None:
            np.cumsum(np.frombuffer(self._outcomes, np.int8, self.use,
                                    self._out_off),
                      dtype=prefix.dtype, out=prefix[1:])
        return prefix


class EventIndex(Dict[int, BlockEvents]):
    """A run's per-block event index: executed block id ->
    :class:`BlockEvents`, in ascending id order.

    Besides the per-block stores it exposes the shared arrays they view,
    so that a caller can select the steps of many blocks' executions in
    one gather (:meth:`slot_steps`).  Block ``b``'s executions occupy
    *slots* ``offsets[i] .. offsets[i] + uses[i] - 1`` of ``residues``,
    for ``b = blocks[i]``.

    Attributes:
        residues: uint16 low bits of every execution's step.
        bucket_at: slot where each (block, bucket) entry starts, block by
            block, closed by the run's length.
        bucket_base: ``bucket << BUCKET_BITS`` of each entry.
        blocks, offsets, uses: int64 executed block ids, their first
            slots and their executions.
    """

    def __init__(self, residues: np.ndarray, bucket_at: np.ndarray,
                 bucket_base: np.ndarray, blocks: np.ndarray,
                 offsets: np.ndarray, uses: np.ndarray):
        super().__init__()
        for array in (residues, bucket_at, bucket_base, blocks, offsets,
                      uses):
            array.flags.writeable = False
        self.residues = residues
        self.bucket_at = bucket_at
        self.bucket_base = bucket_base
        self.blocks = blocks
        self.offsets = offsets
        self.uses = uses

    def slot_steps(self, slots: np.ndarray) -> np.ndarray:
        """Steps at global ``slots`` (each below the run's length)."""
        entry = self.bucket_at.searchsorted(
            slots.astype(self.bucket_at.dtype), "right")
        entry -= 1
        return self.bucket_base[entry] + self.residues[slots]


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

    def events(self, counts: RunCounts) -> EventIndex:
        """The per-block event index of the logged walk.

        Decision ``i`` starts at the sum of the lengths of the segments
        before it, and block ``b`` at offset ``k`` of segment ``v`` runs
        at that start plus ``k`` for every decision of ``v``.  The log is
        read in time-ordered chunks of :data:`_INDEX_CHUNK` decisions.
        Each chunk packs every decision into one key, ``start << 1 |
        outcome`` with the start counted from the chunk's first step
        (int32 unless a chunk could span 2**30 steps), and one stable
        (radix, for 8/16-bit starts) argsort groups the keys by segment,
        each group in time order.  A group's keys plus ``k << 1`` are the
        executions of the segment's block at offset ``k``, each with the
        decision's outcome, and are appended to that block's store.  A
        block in several segments (a join) first merges its runs in the
        chunk with one stable sort.  The tail's steps, the last of the
        run, close each store.
        """
        seg = self.segments
        build = _IndexBuilder(counts)
        present = np.flatnonzero(self.per_start)
        blocks_of = [seg.blocks(v).tolist() for v in present.tolist()]
        seen = np.zeros(counts.num_blocks, dtype=np.int64)
        for blocks in blocks_of:
            seen[blocks] += 1
        joins = set(np.flatnonzero(seen > 1).tolist())
        present = present.astype(self.starts.dtype)
        # ``start << 1 | outcome`` of a chunk's last decision.
        widest = _INDEX_CHUNK * int(seg.length.max(initial=1)) << 1 | 1
        key_type = np.int32 if widest < 2**31 else np.int64
        first = 0  # step of the chunk's first decision
        for lo in range(0, len(self.starts), _INDEX_CHUNK):
            part = self.starts[lo:lo + _INDEX_CHUNK]
            key = np.empty(len(part), dtype=key_type)
            key[0] = 0
            np.cumsum(seg.length[part[:-1]], dtype=key_type, out=key[1:])
            span = int(key[-1]) + int(seg.length[part[-1]])
            key <<= 1
            key |= self.outcomes[lo:lo + len(part)]
            perm = np.argsort(part, kind="stable")
            key = key[perm]
            part = part[perm]
            del perm
            group_lo = part.searchsorted(present).tolist()
            group_hi = part.searchsorted(present, "right").tolist()
            runs: Dict[int, List[Tuple[np.ndarray, int]]] = {}
            for blocks, a, b in zip(blocks_of, group_lo, group_hi):
                if a == b:
                    continue
                for k, block in enumerate(blocks):
                    if block in joins:
                        runs.setdefault(block, []).append((key[a:b], k))
                    else:
                        build.append(block, key[a:b], first + k)
            for block, parts in runs.items():
                if len(parts) > 1:
                    merged = np.empty(sum(len(at) for at, _ in parts),
                                      dtype=key_type)
                    end = 0
                    for at, k in parts:
                        np.add(at, k << 1, out=merged[end:end + len(at)])
                        end += len(at)
                    merged.sort(kind="stable")
                    parts = [(merged, 0)]
                for at, k in parts:
                    build.append(block, at, first + k)
            del key
            first += span
        for block, at in seg.tail(self.tail_start, self.tail_steps):
            build.append(block, np.arange(at.start << 1, at.stop << 1,
                                          at.step << 1), first)
        return build.finish()


class _IndexBuilder:
    """Lays a run's executions into the event index's shared arrays.

    Each block's slice of the residue (and, if it is ever taken,
    outcome) array is laid out from the whole-run counts up front.
    :meth:`append` adds a sorted run of one block's executions, as
    ``step << 1 | outcome`` keys counted from a base step, which must
    come after every execution appended for that block before; it
    records where each bucket the run enters starts.  :meth:`finish`
    cuts the arrays into the :class:`EventIndex`.  Both index builders
    (the decision log's and the array trace's) finish here, so there is
    one layout.
    """

    def __init__(self, counts: RunCounts):
        use = counts.use
        self.counts = counts
        self.dtype = step_dtype(counts.num_steps)
        self.residues = np.empty(counts.num_steps, dtype=np.uint16)
        self.fill = (np.cumsum(use) - use).tolist()
        kept = np.where(counts.taken > 0, use, 0)
        self.keeps = (kept > 0).tolist()
        # Written through an int8 view and handed to the index as is,
        # so finish() never holds a second copy of the outcomes.
        self.out_buf = bytearray(int(kept.sum()))
        self.outcomes = np.frombuffer(self.out_buf, dtype=np.int8)
        self.out_fill = (np.cumsum(kept) - kept).tolist()
        # Per block: the slot where each bucket from its first to its
        # current one starts, its first bucket and its current bucket.
        self.marks: Dict[int, List[int]] = {}
        self.first_bucket: Dict[int, int] = {}
        self.bucket: Dict[int, int] = {}

    def append(self, block: int, keys: np.ndarray, k: int) -> None:
        """Append executions ``keys`` to ``block``: sorted, non-empty
        ``(step - k) << 1 | outcome`` keys, the outcome 0 where the
        execution has none.  Outcomes are kept only for a block that is
        taken at least once."""
        n = len(keys)
        f = self.fill[block]
        residues = self.residues[f:f + n]
        np.right_shift(keys, 1, out=residues, casting="unsafe")
        residues += k & 0xFFFF
        low = ((int(keys[0]) >> 1) + k) >> BUCKET_BITS
        high = ((int(keys[-1]) >> 1) + k) >> BUCKET_BITS
        marks = self.marks.get(block)
        if marks is None:
            marks = self.marks[block] = [f]
            self.first_bucket[block] = low
        elif low > self.bucket[block]:
            marks.extend([f] * (low - self.bucket[block]))
        if high > low:
            # The first execution at or past each bucket edge after the
            # first, as a key.
            edges = np.arange((low + 1 << BUCKET_BITS) - k << 1,
                              (high << BUCKET_BITS) - k + 1 << 1,
                              2 << BUCKET_BITS, dtype=keys.dtype)
            marks.extend([f + i for i in keys.searchsorted(edges).tolist()])
        self.bucket[block] = high
        self.fill[block] = f + n
        if self.keeps[block]:
            g = self.out_fill[block]
            np.bitwise_and(keys, 1, out=self.outcomes[g:g + n],
                           casting="unsafe")
            self.out_fill[block] = g + n

    def finish(self) -> EventIndex:
        """The index (its arrays read-only); its bytes, each buffer
        counted once, go to ``trace.index_bytes``."""
        use = self.counts.use
        dtype = self.dtype
        blocks = np.flatnonzero(use)
        marks = [self.marks[b] for b in blocks.tolist()]
        sizes = [len(m) for m in marks]
        bucket_at = np.empty(sum(sizes) + 1, dtype=dtype)
        bucket_at[:-1] = [f for m in marks for f in m]
        bucket_at[-1] = self.counts.num_steps
        bucket_base = np.array(
            [self.first_bucket[b] + j
             for b, n in zip(blocks.tolist(), sizes) for j in range(n)],
            dtype=dtype)
        bucket_base <<= BUCKET_BITS
        kept = np.where(self.counts.taken > 0, use, 0)
        per_check = (kept >> _CHECK_BITS) + (kept > 0)
        checks = np.zeros(int(per_check.sum()), dtype=dtype)
        check_at = np.cumsum(per_check) - per_check
        out_at = np.cumsum(kept) - kept
        for b in np.flatnonzero(kept).tolist():
            whole = (int(kept[b]) >> _CHECK_BITS) << _CHECK_BITS
            c = int(check_at[b])
            sums = self.outcomes[out_at[b]:out_at[b] + whole].reshape(
                -1, 1 << _CHECK_BITS).sum(axis=1, dtype=dtype)
            np.cumsum(sums, out=checks[c + 1:c + 1 + len(sums)])
        outcomes = self.out_buf
        self.outcomes = self.out_buf = None
        checks.flags.writeable = False
        offsets = (np.cumsum(use) - use)[blocks]
        index = EventIndex(self.residues, bucket_at, bucket_base, blocks,
                           offsets, use[blocks])
        entry = 0
        for b, off, n in zip(blocks.tolist(), offsets.tolist(), sizes):
            at = bucket_at[entry:entry + n + 1]
            entry += n
            if kept[b]:
                c = int(check_at[b])
                index[b] = BlockEvents(self.residues, off, at,
                                       self.first_bucket[b], outcomes,
                                       int(out_at[b]),
                                       checks[c:c + int(per_check[b])])
            else:
                index[b] = BlockEvents(self.residues, off, at,
                                       self.first_bucket[b], None, 0, None)
        observe("trace.index_bytes", len(outcomes) + sum(
            array.nbytes for array in (self.residues, bucket_at,
                                       bucket_base, checks)))
        return index


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
        self._events: Optional[EventIndex] = None
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

    def events(self) -> EventIndex:
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

    def _build_events(self) -> EventIndex:
        """Group an array trace's steps by block with stable per-chunk
        argsorts.

        Ids are narrowed to the smallest unsigned width holding
        ``num_blocks`` (checked in ``__init__``); for 8/16-bit keys
        numpy's stable sort is an O(N) radix sort.  Each chunk of
        :data:`_SORT_CHUNK` steps is sorted on its own and each block's
        run in it is appended to the block's store, so the sort's scratch
        stays chunk-sized.
        """
        keys = self.blocks
        if self.num_blocks <= 1 << 8:
            keys = keys.astype(np.uint8)
        elif self.num_blocks <= 1 << 16:
            keys = keys.astype(np.uint16)
        build = _IndexBuilder(self.counts())
        taken = self.taken
        inner = np.arange(1, self.num_blocks, dtype=keys.dtype)
        for lo in range(0, len(keys), _SORT_CHUNK):
            part = keys[lo:lo + _SORT_CHUNK]
            perm = np.argsort(part, kind="stable")
            # Where each block's run starts in the sorted chunk.
            bounds = np.empty(self.num_blocks + 1, dtype=np.int64)
            bounds[0] = 0
            bounds[1:-1] = np.searchsorted(part[perm], inner)
            bounds[-1] = len(part)
            for bid in np.flatnonzero(np.diff(bounds)).tolist():
                run = perm[bounds[bid]:bounds[bid + 1]]
                packed = run << 1
                if build.keeps[bid]:
                    packed |= taken[run + lo] == 1
                build.append(bid, packed, lo)
        return build.finish()

    @classmethod
    def from_sequences(cls, blocks: Sequence[int], taken: Sequence[int],
                       num_blocks: int) -> "ExecutionTrace":
        """Build a trace from plain Python sequences (tests, examples)."""
        return cls(np.asarray(blocks, dtype=np.int32),
                   np.asarray(taken, dtype=np.int8), num_blocks)
