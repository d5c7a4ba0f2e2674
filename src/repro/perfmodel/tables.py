"""Precomputed per-trace cost tables for the performance model.

A threshold sweep estimates the cost of one recorded trace against many
translation maps (one per threshold).  Most of what
:func:`~repro.perfmodel.execution.estimate_cost` computes per call is a
function of the *trace* alone — the int64 block ids, the position ramp,
the per-step unoptimised/optimised prices, the dynamic-edge pair codes —
so recomputing it for every threshold dominated study time.
:class:`CostTables` hoists those invariants out of the loop; the
estimators take an optional ``tables`` argument and skip straight to the
per-map work.

Bitwise identity is the design constraint: every float in a table is
produced by exactly the elementwise operation the un-hoisted estimator
performed, so the sums the estimators reduce them to are bit-for-bit the
same and the SHA-pinned golden corpus is untouched.  The only true
replacement is the internal-edge membership test, which swaps
``np.isin`` (a sort-based search per call) for a boolean lookup table
over the pair-code space — an exact set-membership equivalence, checked
by ``tests/perfmodel/test_cost_tables.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..dbt.codecache import TranslationMap
from ..stochastic.trace import ExecutionTrace
from .costs import DEFAULT_COSTS, CostModel

#: Above this many pair codes the membership LUT would out-cost the
#: ``np.isin`` it replaces; fall back (16M bools = 16 MB).
_LUT_CAP = 1 << 24


class CostTables:
    """Trace-invariant inputs of the cost estimators, computed once.

    Attributes:
        num_blocks: size of the block id space.
        sizes: float instruction size per block id.
        costs: the cost calibration the prices were computed under.
        blocks: the trace's block ids as int64.
        positions: ``arange(num_steps)`` — the step ramp ``optimized_at``
            is compared against.
        unopt_price: per-step cost if the step runs unoptimised
            (``size * interp_cost + profile_overhead``).
        opt_price: per-step cost if the step runs optimised under the
            flat model (``size * opt_cost``).
        src: source block of every dynamic edge (``blocks[:-1]``).
        codes: pair code of every dynamic edge
            (``src * num_blocks + dst``).
    """

    def __init__(self, trace: ExecutionTrace,
                 block_sizes: Sequence[int],
                 costs: CostModel = DEFAULT_COSTS):
        sizes = np.asarray(block_sizes, dtype=float)
        if len(sizes) != trace.num_blocks:
            raise ValueError("block_sizes length does not match block count")
        blocks = trace.blocks.astype(np.int64)
        step_sizes = sizes[blocks]
        self.num_blocks = trace.num_blocks
        self.sizes = sizes
        self.costs = costs
        self.blocks = blocks
        self.positions = np.arange(len(blocks), dtype=np.int64)
        self.unopt_price = (step_sizes * costs.interp_cost +
                            costs.profile_overhead)
        self.opt_price = step_sizes * costs.opt_cost
        self.src = blocks[:-1]
        self.codes = self.src * trace.num_blocks + blocks[1:]

    @property
    def num_steps(self) -> int:
        """Steps in the underlying trace."""
        return len(self.blocks)

    def edge_inside(self, tmap: TranslationMap) -> np.ndarray:
        """Per dynamic edge: does it stay inside an optimised region?

        Exact set membership of each edge's pair code in the map's
        internal codes — a boolean gather through a lookup table over
        the pair-code space when that space is small enough
        (:data:`_LUT_CAP`), ``np.isin`` otherwise.
        """
        internal_codes = tmap.internal_pair_codes()
        pair_space = self.num_blocks * self.num_blocks
        if pair_space <= _LUT_CAP:
            member = np.zeros(pair_space, dtype=bool)
            member[internal_codes] = True
            return member[self.codes]
        return np.isin(self.codes, internal_codes)
