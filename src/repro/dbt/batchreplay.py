"""The batched replay sweep: registration windows instead of heap pops.

The reference replay walk (``tests/reference.py``) pops one
``(position, block)`` registration event at a time off a heap and runs
the candidate-pool state machine per event in Python.  This module
replays the *same* event stream in bulk:

1. every live block's next registrations are gathered into one sorted
   **position window**: one gather over every live block, read straight
   off the event index's shared residue array (block ``b``'s ``j``-th
   registration is its execution ``(j + 1)·T − 1``, at a known slot of
   that array), then one argsort;
2. the pool-trigger scan over a window is vectorised — first-occurrence
   detection, pool-membership lookup and the running pool-size cumsum
   find the earliest trigger as array operations;
3. only at a trigger does Python run: the pool is drained and the
   caller's optimisation callback fires, exactly like the heap walk's;
   the scan then resumes after the trigger with the updated freeze set.

Equivalence to the heap walk (the differential suite in
``tests/dbt/test_replay_diff.py`` pins it case by case):

* within one threshold every registration event has a **distinct** trace
  position (exactly one block executes per step), so sorting a window by
  position reproduces the heap's total order exactly;
* between two triggers the only state that changes is pool membership —
  precisely what the cumulative-sum scan models — so the earliest
  trigger found by the scan is the trigger the heap walk would hit;
* frozen blocks are excluded when a window is built and re-filtered
  after every trigger, matching the heap walk's skip-on-pop check;
* the pool drains completely at every trigger (``CandidatePool.drain``),
  so blocks dropped by region formation without being optimised
  re-register later as fresh members, in both walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Set

import numpy as np

from ..stochastic.trace import EventIndex
from .config import DBTConfig

#: Target registration events per window.
REPLAY_CHUNK = 2048

#: The optimisation callback: ``(drained_pool_blocks, now) -> newly
#: frozen block ids``.  Bound to the host replay's ``_optimize_blocks``.
OptimizeFn = Callable[[List[int], int], Set[int]]


@dataclass
class ReplaySweepStats:
    """What one batched sweep did, for the ``replay.kernel.batched.*``
    counters."""

    windows: int = 0
    events: int = 0


def run_batched_replay(events: EventIndex,
                       config: DBTConfig,
                       optimize_blocks: OptimizeFn,
                       num_blocks: int,
                       chunk: int = REPLAY_CHUNK
                       ) -> ReplaySweepStats:
    """Drain one threshold's registration stream in sorted windows.

    Args:
        events: the trace's event index; block ``b``'s registrations are
            its executions ``T − 1, 2T − 1, ...`` (``T`` the threshold).
        config: the threshold's DBT knobs (threshold, pool trigger size
            and the register-twice rule are read here).
        optimize_blocks: drains into the host pipeline state; returns
            the newly frozen blocks so the sweep can stop gathering
            their remaining registrations.
        num_blocks: size of the block id space.
        chunk: target registration events per window.  Windows adapt to
            event density — only *live* (unfrozen, unexhausted) blocks
            contribute — so post-freeze registrations are never
            gathered and tiny thresholds cost what a heap walk pays,
            not the full registration count.
    """
    stats = ReplaySweepStats()
    threshold = config.threshold
    lens = events.uses // threshold
    has = lens > 0
    ids = events.blocks[has]
    if ids.size == 0:
        return stats
    lens = lens[has]
    # Slot of each block's first registration; the next are T apart.
    first_slot = events.offsets[has] + (threshold - 1)
    ptr = np.zeros(ids.size, dtype=np.int64)
    frozen = np.zeros(num_blocks, dtype=bool)
    pool_member = np.zeros(num_blocks, dtype=bool)
    pool_order: List[int] = []
    trigger_size = config.pool_trigger_size
    dup_triggers = config.register_twice_triggers

    while True:
        alive = np.flatnonzero((ptr < lens) & ~frozen[ids])
        if alive.size == 0:
            return stats
        # Gather up to k next registrations per live block.  The first
        # position *not* taken from any block bounds the window: below
        # it, the gathered candidates are the complete event set.
        k = max(1, chunk // alive.size)
        left = lens[alive] - ptr[alive]
        take = np.minimum(left, k)
        at = first_slot[alive] + ptr[alive] * threshold
        rank = np.arange(k)
        slots = (at[:, None] + rank * threshold)[rank < take[:, None]]
        more = left > k
        bounded = bool(more.any())
        if bounded:
            slots = np.concatenate([slots, at[more] + k * threshold])
        pos = events.slot_steps(slots)
        blk = np.repeat(ids[alive], take)
        if bounded:
            limit = pos[len(blk):].min()
            pos = pos[:len(blk)]
            keep = pos < limit
            pos = pos[keep]
            blk = blk[keep]
        order = np.argsort(pos)
        pos = pos[order]
        blk = blk[order]
        # Every window event is consumed below (registered, skipped as
        # frozen, or a no-op duplicate), so pointers advance up front.
        counts = np.bincount(blk, minlength=num_blocks)
        ptr[alive] += counts[ids[alive]]
        stats.windows += 1
        stats.events += len(pos)

        i0 = 0
        n = len(pos)
        while i0 < n:
            live_rel = np.flatnonzero(~frozen[blk[i0:]])
            if live_rel.size == 0:
                break  # only frozen-block events remain in the window
            idxs = i0 + live_rel
            b = blk[idxs]
            first = np.zeros(len(b), dtype=bool)
            first[np.unique(b, return_index=True)[1]] = True
            is_new = first & ~pool_member[b]
            # Pool size after each prospective registration; a full
            # trigger fires at the first new block that fills the pool,
            # a dup trigger (when enabled) at the first re-registration.
            cum = len(pool_order) + np.cumsum(is_new)
            full_hits = np.flatnonzero(is_new & (cum >= trigger_size))
            t = int(full_hits[0]) if full_hits.size else -1
            if dup_triggers:
                dup_hits = np.flatnonzero(~is_new)
                if dup_hits.size and (t < 0 or int(dup_hits[0]) < t):
                    t = int(dup_hits[0])
            if t < 0:
                added = b[is_new]
                pool_order.extend(int(x) for x in added)
                pool_member[added] = True
                break  # window consumed without a trigger
            added = b[:t + 1][is_new[:t + 1]]
            pool_order.extend(int(x) for x in added)
            drained = pool_order
            pool_order = []
            pool_member[:] = False
            newly = optimize_blocks(drained, int(pos[idxs[t]]) + 1)
            if newly:
                frozen[list(newly)] = True
            i0 = int(idxs[t]) + 1
