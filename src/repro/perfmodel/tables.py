"""Per-edge step index of a trace, for pricing many translation maps.

A threshold sweep prices one recorded trace against many translation
maps.  All the estimator needs are *counts* over a block's or an edge's
occurrences: how many of block ``b``'s steps ran optimised, and how many
optimised steps left through a side exit.  A map settles both with one
number per block: step ``s`` of ``b`` runs optimised iff
``optimized_at[b] <= s``.  So :class:`CostTables` indexes the trace
once, in O(N), and each map is priced in O((blocks + edges) · log N):

* ``keys`` holds ``edge * N + step`` for every step with a successor,
  grouped by dynamic edge ``(src, dst)`` and sorted.  It is built by
  splitting each block's sorted steps from the event index
  (``trace.events()``) by successor, so no full-trace sort is paid.  A
  walker trace names each step's successor from its successor table
  (a block's only successor, or a branch's taken/fall-through one by
  the outcomes in ``taken_prefix``), so its steps are never decoded;
  an array trace reads ``blocks[step + 1]``;
* per map, one ``searchsorted`` of ``edge * N + optimized_at[src]``
  counts each edge's optimised steps, and a ``bincount`` over ``src``
  (plus the last step, which has no edge) gives them per block.

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
from ..stochastic.trace import ExecutionTrace
from .costs import DEFAULT_COSTS, CostModel


class CostTables:
    """Trace-invariant inputs of the cost estimators, computed once.

    Attributes:
        num_blocks, num_steps: the trace's block id space and length.
        sizes: float instruction size per block id; ``costs`` the
            calibration the per-block prices were computed under.
        use: executions per block.
        unopt_price / opt_price: per-block cost of one unoptimised
            (``size * interp_cost + profile_overhead``) or optimised
            (flat model, ``size * opt_cost``) execution.
        keys: sorted ``edge * num_steps + step``, grouped by edge.
        edge_src / edge_code / edge_end: per dynamic edge, its source
            block, pair code ``src * num_blocks + dst`` and segment end.
    """

    def __init__(self, trace: ExecutionTrace,
                 block_sizes: Sequence[int],
                 costs: CostModel = DEFAULT_COSTS):
        sizes = np.asarray(block_sizes, dtype=float)
        if len(sizes) != trace.num_blocks:
            raise ValueError("block_sizes length does not match block count")
        self.num_blocks = trace.num_blocks
        self.num_steps = n = trace.num_steps
        self.sizes = sizes
        self.costs = costs
        self.unopt_price = sizes * costs.interp_cost + costs.profile_overhead
        self.opt_price = sizes * costs.opt_cost
        self.use = np.zeros(self.num_blocks, dtype=np.int64)
        self._last_block = 0

        # A walker trace's successors follow from its CFG: a block's only
        # successor, or a branch's by the outcome its prefix records.
        table = trace.successors
        segments, src, dst = [], [], []
        for block, events in trace.events().items():
            steps = events.steps
            self.use[block] = len(steps)
            if steps[-1] == n - 1:
                self._last_block = block  # the last step has no successor
                steps = steps[:-1]
            if table is None:
                succ = trace.blocks[steps + 1]
            elif table[block, 0] == table[block, 1]:
                if len(steps):
                    segments.append(steps + len(segments) * n)
                    src.append(block)
                    dst.append(int(table[block, 0]))
                continue
            else:
                succ = table[block].take(
                    np.diff(events.taken_prefix[:len(steps) + 1]))
            while len(steps):  # one pass per distinct successor
                here = succ == succ[0]
                segments.append(steps[here] + len(segments) * n)
                src.append(block)
                dst.append(succ[0])
                steps, succ = steps[~here], succ[~here]
        self.keys = (np.concatenate(segments) if segments
                     else np.empty(0, dtype=np.int64))
        self.edge_src = np.array(src, dtype=np.int64)
        self.edge_code = (self.edge_src * self.num_blocks +
                          np.array(dst, dtype=np.int64))
        self.edge_end = np.cumsum([len(s) for s in segments], dtype=int)

    def optimized_steps(self, tmap: TranslationMap
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Steps that run optimised under ``tmap``: per block, per edge."""
        n = self.num_steps
        start = np.ceil(np.clip(tmap.optimized_at, 0, n)).astype(np.int64)
        edges = np.arange(len(self.edge_src), dtype=np.int64)
        first = np.searchsorted(self.keys,
                                edges * n + start[self.edge_src])
        per_edge = self.edge_end - first
        per_block = np.bincount(self.edge_src, weights=per_edge,
                                minlength=self.num_blocks).astype(np.int64)
        if n and start[self._last_block] < n:
            per_block[self._last_block] += 1  # the last step has no edge
        return per_block, per_edge
