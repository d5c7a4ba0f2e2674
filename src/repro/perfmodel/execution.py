"""Trace-replay performance estimation (paper §4.4, Figure 17).

Given a recorded trace and the translation map of a finished DBT run, this
module computes the modelled execution cost of the run and the relative
performance across thresholds (base = threshold 1, exactly as the paper
normalises Figure 17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..dbt.codecache import TranslationMap
from ..obs.registry import inc
from ..obs.spans import span
from ..stochastic.trace import ExecutionTrace
from .costs import DEFAULT_COSTS, CostModel
from .tables import CostTables


@dataclass
class CostBreakdown:
    """Modelled cost of one run, by mechanism.

    ``total`` is the sum of the four components; ``relative_performance``
    against another run is ``other.total / self.total`` (higher = faster).
    """

    unoptimized: float
    optimized: float
    side_exits: float
    translation: float
    num_side_exits: int
    optimized_fraction: float

    @property
    def total(self) -> float:
        """Total modelled cost."""
        return (self.unoptimized + self.optimized + self.side_exits +
                self.translation)


def _breakdown(tables: CostTables, tmap: TranslationMap, costs: CostModel,
               opt_price: np.ndarray) -> CostBreakdown:
    """Price one translation map with the trace's :class:`CostTables`.

    ``opt_price`` is the per-block cost of an optimised execution: the
    flat ``tables.opt_price``, or measured costs for the derived model.
    """
    opt_steps, opt_edge_steps = tables.optimized_steps(tmap)
    unopt_cost = float(np.sum((tables.use - opt_steps) * tables.unopt_price))
    opt_cost = float(np.sum(opt_steps * opt_price))

    # Side exits: an optimised block whose *dynamic* successor edge is
    # not covered by any region's internal/back edges fell out of
    # translated code.  Exits from region tails are planned and free.
    num_side_exits = 0
    if tables.num_steps > 1 and tmap.internal_pairs:
        tails = np.zeros(tables.num_blocks, dtype=bool)
        tails[list(tmap.tail_blocks)] = True
        # Membership by binary search in the sorted codes: ``np.isin``
        # would import ``numpy.ma`` into every pricing process.
        codes = tmap.internal_pair_codes()
        found = np.minimum(np.searchsorted(codes, tables.edge_code),
                           len(codes) - 1)
        side = ~((codes[found] == tables.edge_code) |
                 tails[tables.edge_src])
        num_side_exits = int(np.sum(opt_edge_steps[side]))
    n = tables.num_steps
    return CostBreakdown(
        unoptimized=unopt_cost, optimized=opt_cost,
        side_exits=num_side_exits * costs.side_exit_penalty,
        translation=float(tmap.instructions_translated(tables.sizes) *
                          costs.translation_cost),
        num_side_exits=num_side_exits,
        optimized_fraction=int(np.sum(opt_steps)) / n if n else 0.0)


def estimate_cost(trace: ExecutionTrace, tmap: TranslationMap,
                  block_sizes: Sequence[int],
                  costs: CostModel = DEFAULT_COSTS,
                  tables: Optional[CostTables] = None) -> CostBreakdown:
    """Price every step of ``trace`` under the translation map.

    Args:
        trace: the recorded run.
        tmap: which blocks ran optimised from when, and which dynamic
            edges stayed inside optimised regions.
        block_sizes: static instruction count per block id (the walker has
            no instruction stream, so sizes come from the workload's CFG
            metadata or :meth:`Program.block_table`).
        costs: the cost calibration.
        tables: optional precomputed :class:`CostTables` for this
            (trace, block_sizes, costs) triple — pass one when sweeping
            many translation maps over the same trace so the
            trace-invariant index is built once.  Results are
            bit-identical with or without.
    """
    if tables is None:
        tables = CostTables(trace, block_sizes, costs)
    elif tables.num_steps != trace.num_steps:
        raise ValueError("tables were built from a different trace")

    with span("perfmodel.estimate_cost", steps=trace.num_steps):
        breakdown = _breakdown(tables, tmap, costs, tables.opt_price)
    inc("perfmodel.estimates")
    inc("perfmodel.side_exits", breakdown.num_side_exits)
    return breakdown


def relative_performance(costs_by_threshold: Dict[int, CostBreakdown],
                         base_threshold: int = 1) -> Dict[int, float]:
    """Figure 17 normalisation: performance relative to the base threshold.

    ``perf(T) = cost(base) / cost(T)`` — higher is better, base = 1.0.
    """
    if base_threshold not in costs_by_threshold:
        raise KeyError(f"base threshold {base_threshold} missing")
    base = costs_by_threshold[base_threshold].total
    return {t: base / c.total for t, c in costs_by_threshold.items()}
