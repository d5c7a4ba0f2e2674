"""Figure 17's pricing inputs, read by rank off a trace's event index.

A threshold sweep prices one recorded trace against many translation
maps.  All the estimator needs are *counts*: how many of block ``b``'s
executions ran optimised, and how many of those left by each successor
edge.  A map settles both with one number per block: step ``s`` of
``b`` runs optimised iff ``optimized_at[b] <= s``.  So
:class:`CostTables` keeps each block's rank/select store from the
event index (``trace.events()``) and prices each map by rank in
O(blocks · log N), with no per-step array:

* a block's ``m`` executions with a successor (its ``use``, less one
  for the trace's last step) leave by one edge if the successor table
  (``trace.successors``) gives one successor, else ``taken_upto(m)``
  by the taken edge and the rest by the fall-through edge;
* per map, with ``start = ceil(clip(optimized_at, 0, N))``, a block
  counts whole if ``start <= first_step`` and zero if ``start >
  last_step``; else ``i = use_before(start) <= m`` leaves
  ``use - i`` optimised executions, ``m - i`` optimised traversals and
  ``taken_upto(m) - taken_upto(i)`` optimised taken ones.

Exactness: the estimator sums ``count * price``.  With integral sizes
and costs (every study's sizes and ``DEFAULT_COSTS``) every price,
product and partial sum is an integer below 2^53, so any summation
order is exact and totals equal the historical per-step sums bit for
bit; the SHA-pinned golden corpus does not move.  With fractional costs
the per-block sums differ from per-step pairwise sums only by rounding.
``tests/perfmodel/test_pricing_diff.py`` checks both against the
per-step oracle in ``tests/reference.py``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..dbt.codecache import TranslationMap
from ..stochastic.trace import ExecutionTrace, TraceError
from .costs import DEFAULT_COSTS, CostModel


class CostTables:
    """Trace-invariant inputs of the cost estimator, computed once.

    Attributes:
        num_blocks, num_steps: the trace's block id space and length.
        sizes: float instruction size per block id; ``costs`` the
            calibration the per-block prices were computed under.
        use: executions per block.
        unopt_price / opt_price: per-block cost of one unoptimised
            (``size * interp_cost + profile_overhead``) or optimised
            (``size * opt_cost``) execution.
        edge_src / edge_code: per dynamic edge, its source block and
            pair code ``src * num_blocks + dst``.
    """

    def __init__(self, trace: ExecutionTrace,
                 block_sizes: Sequence[int],
                 costs: CostModel = DEFAULT_COSTS):
        sizes = np.asarray(block_sizes, dtype=float)
        if len(sizes) != trace.num_blocks:
            raise ValueError("block_sizes length does not match block count")
        self.num_blocks = nb = trace.num_blocks
        self.num_steps = n = trace.num_steps
        self.sizes = sizes
        self.costs = costs
        self.unopt_price = sizes * costs.interp_cost + costs.profile_overhead
        self.opt_price = sizes * costs.opt_cost

        # Per block: first and last step, use, leaving executions ``m``
        # and the taken ones among them.  A block that never runs counts
        # as optimised from its "first step" ``n + 1``, with zero counts.
        self._events = trace.events()
        stats = np.zeros((5, nb), dtype=np.int64)
        stats[0] = n + 1
        edges = []
        for block, events in self._events.items():
            use = m = events.use
            if events.last_step == n - 1:
                m -= 1  # the last step has no successor
            taken = events.taken_upto(m)
            stats[:, block] = (events.first_step, events.last_step, use, m,
                               taken)
            # Each edge is traversed ``a * m + b * taken`` times.
            fall, hit = trace.successors[block].tolist()
            for succ, count, a, b in (
                    [(fall, m, 1, 0)] if fall == hit else
                    [(fall, m - taken, 1, -1), (hit, taken, 0, 1)]):
                if count and succ < 0:
                    raise TraceError(f"block {block} has a successor but "
                                     "no successor table entry")
                if count:
                    edges.append((block, succ, a, b))
        self._first, self._last, self.use, self._leaving, self._taken = stats
        self.edge_src, dst, self._edge_a, self._edge_b = \
            np.array(edges, dtype=np.int64).reshape(-1, 4).T.copy()
        self.edge_code = self.edge_src * nb + dst

    def optimized_steps(self, tmap: TranslationMap
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Steps that run optimised under ``tmap``: per block, per edge."""
        start = np.ceil(np.clip(tmap.optimized_at, 0, self.num_steps)
                        ).astype(np.int64)
        # Blocks optimised by their first step count whole; only those
        # optimised part way through their run need a search.
        whole = start <= self._first
        per_block = np.where(whole, self.use, 0)
        trips = np.where(whole, self._leaving, 0)
        taken = np.where(whole, self._taken, 0)
        part = np.flatnonzero(~whole & (start <= self._last))
        for block, at, m in zip(part.tolist(), start[part].tolist(),
                                self._leaving[part].tolist()):
            events = self._events[block]
            i = events.use_before(at)
            per_block[block] = events.use - i
            trips[block] = m - i
            taken[block] = self._taken[block] - events.taken_upto(i)
        return per_block, (self._edge_a * trips[self.edge_src] +
                           self._edge_b * taken[self.edge_src])
