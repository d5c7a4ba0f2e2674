"""Deriving cost-model parameters from real retranslation (`repro.opt`).

The Figure 17 cost model assumes a flat ``opt_cost < interp_cost`` ratio.
For instruction-level (VIR) workloads we can do better: actually
retranslate the formed regions (constant propagation, DCE, scheduling)
and read each block's optimised cost off the schedule.  This module
bridges the two — producing a per-block optimised-cost array the
execution estimator consumes instead of the flat constant.  The
optimiser is imported on first use, so importing the perf model (and
every study and CLI start) does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..cfg.graph import ControlFlowGraph
from ..profiles.model import ProfileSnapshot
from .costs import CostModel

if TYPE_CHECKING:
    from ..ir.program import Program
    from ..opt.scheduler import MachineModel


def measured_block_costs(program: Program, cfg: ControlFlowGraph,
                         snapshot: ProfileSnapshot,
                         machine: Optional[MachineModel] = None,
                         base_costs: Optional[CostModel] = None
                         ) -> np.ndarray:
    """Per-block optimised cost (cycles per execution), measured.

    For every block covered by a region's main path, the region's
    measured cycles-per-instruction (scheduled cycles over optimised
    instruction count, spread across the path) replaces the flat
    ``opt_cost``; blocks optimised but off any main path, and blocks
    never optimised, fall back to the flat model.  When a block is
    duplicated into several regions, the cheapest translation wins (the
    dispatcher prefers the best code).

    Returns an array of length ``cfg.num_nodes``: modelled cycles per
    execution of each block when running optimised.  ``machine``
    defaults to ``MachineModel()``.
    """
    from ..opt.regionopt import main_path_instances, optimize_region
    from ..opt.scheduler import MachineModel

    machine = machine or MachineModel()
    base_costs = base_costs or CostModel()
    table = program.block_table()
    sizes = np.array([len(block) for _, block in table], dtype=float)
    costs = sizes * base_costs.opt_cost  # flat fallback

    for region in snapshot.regions:
        report = optimize_region(program, region, machine)
        path_blocks = [region.members[i]
                       for i in main_path_instances(region)]
        path_size = sum(sizes[b] for b in path_blocks)
        if path_size <= 0 or report.scheduled_cycles <= 0:
            continue
        cycles_per_instr = report.scheduled_cycles / path_size
        for block in path_blocks:
            measured = sizes[block] * cycles_per_instr
            costs[block] = min(costs[block], measured)
    return costs


def estimate_cost_measured(trace, tmap, program: Program,
                           cfg: ControlFlowGraph,
                           snapshot: ProfileSnapshot,
                           machine: Optional[MachineModel] = None,
                           costs: Optional[CostModel] = None,
                           tables=None):
    """Figure 17's estimator with measured optimised-block costs.

    Identical to :func:`repro.perfmodel.execution.estimate_cost` except
    the optimised execution term uses per-block measured cycles instead
    of ``opt_cost × size``.  ``tables`` is an optional precomputed
    :class:`~repro.perfmodel.tables.CostTables` for this (trace,
    program, costs) triple, shareable across translation maps.
    """
    from .execution import _breakdown
    from .tables import CostTables

    costs = costs or CostModel()
    measured = measured_block_costs(program, cfg, snapshot, machine, costs)
    if tables is None:
        table = program.block_table()
        sizes = np.array([len(block) for _, block in table], dtype=float)
        tables = CostTables(trace, sizes, costs)
    elif tables.num_steps != trace.num_steps:
        raise ValueError("tables were built from a different trace")
    return _breakdown(tables, tmap, costs, measured)
