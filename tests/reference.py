"""Reference engines the production fast paths are tested against.

Production has one engine per stage: the vector walker records traces
(:func:`repro.stochastic.record_trace`) and the batched windowed sweep
replays them (:func:`repro.dbt.batchreplay.run_batched_replay`).  The
slow, obviously-correct implementations they must match event for event
live here, where only tests can reach them:

* :func:`walker_trace` — the scalar :class:`~repro.stochastic.CFGWalker`,
  one Python iteration per step, with ``record_trace``'s signature;
* :func:`walker_counts` — the same walk counted by :func:`reference_counts`
  (one ``bincount`` per counter over the recorded arrays), with the
  count-only ``record_counts``'s signature;
* :func:`heap_replay` — one threshold's registration stream drained off
  a heap, one Python iteration per registration, with
  ``run_batched_replay``'s ``(config, optimize)`` callback contract,
  fed the whole stream by
  :func:`~repro.dbt.replay.registration_positions`;
* :func:`reference_breakdown` — the performance model priced step by
  step, one full-length pass over the trace per map, against which
  :class:`~repro.perfmodel.CostTables`' rank pricing is checked;
* :func:`reference_events` — the per-block event index spelled out as
  full step and taken-prefix arrays, one linear scan of the trace per
  block, against which the compact store of
  :meth:`~repro.stochastic.ExecutionTrace.events` is checked;
* :func:`reference_optimized_steps` — the optimised steps per block
  and traversals per dynamic edge under one map, from one gather of
  every step, against which :class:`~repro.perfmodel.CostTables`' rank
  counts off the event index and successor table are checked.

The ``oracle_engines`` fixture (``tests/conftest.py``) swaps the
walkers and the heap replay into the study pipeline;
:func:`reference_replay` runs one threshold through the heap walk
directly.
"""

from __future__ import annotations

import heapq
from typing import (Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Set, Tuple)

import numpy as np

from repro.cfg import ControlFlowGraph
from repro.cfg.loops import find_loops
from repro.dbt import (CandidatePool, DBTConfig, ThresholdReplayState,
                       TranslationMap)
from repro.dbt.batchreplay import OptimizeFn
from repro.dbt.replay import registration_positions
from repro.perfmodel import DEFAULT_COSTS, CostBreakdown, CostModel
from repro.stochastic import (BlockEvents, CFGWalker, ExecutionTrace,
                              ProgramBehavior, RunCounts)
from repro.stochastic.trace import step_dtype


def walker_trace(cfg: ControlFlowGraph, behavior: ProgramBehavior,
                 max_steps: int, seed: int = 0) -> ExecutionTrace:
    """Record one run with the scalar walker."""
    return CFGWalker(cfg, behavior, seed=seed).run(max_steps)


def reference_counts(trace: ExecutionTrace) -> RunCounts:
    """Whole-run use/taken counts of ``trace``, bincounted from its
    arrays."""
    n = trace.num_blocks
    return RunCounts(
        use=np.bincount(trace.blocks, minlength=n).astype(np.int64),
        taken=np.bincount(trace.blocks[trace.taken == 1],
                          minlength=n).astype(np.int64),
        num_steps=trace.num_steps)


def walker_counts(cfg: ControlFlowGraph, behavior: ProgramBehavior,
                  max_steps: int, seed: int = 0) -> RunCounts:
    """Count one run: the scalar walker's trace, bincounted."""
    return reference_counts(walker_trace(cfg, behavior, max_steps, seed))


def heap_replay(positions: Mapping[int, np.ndarray], config: DBTConfig,
                optimize_blocks: OptimizeFn) -> None:
    """Drain one threshold's registrations in trace order off a heap.

    Only each block's *next* registration is enqueued, so tiny
    thresholds don't flood the heap up front; a block frozen by an
    optimisation stops registering.
    """
    pool = CandidatePool(config)
    frozen: Set[int] = set()
    heap: List[Tuple[int, int, int]] = [
        (int(regs[0]), block, 1) for block, regs in positions.items()]
    heapq.heapify(heap)
    while heap:
        pos, block, k = heapq.heappop(heap)
        if block in frozen:
            continue  # counting stopped before this occurrence
        if pool.register(block):
            frozen |= optimize_blocks(pool.drain(), pos + 1)
        if block not in frozen:
            regs = positions[block]
            if k < len(regs):
                heapq.heappush(heap, (int(regs[k]), block, k + 1))


def reference_replay(trace: ExecutionTrace, cfg: ControlFlowGraph,
                     config: DBTConfig) -> ThresholdReplayState:
    """One threshold's finished pipeline state, driven by
    :func:`heap_replay`."""
    state = ThresholdReplayState(trace, cfg, config, find_loops(cfg))
    positions = registration_positions(state._events, config.threshold)
    heap_replay(positions, config, state._optimize_blocks)
    return state


def reference_breakdown(trace: ExecutionTrace, tmap: TranslationMap,
                        block_sizes: Sequence[float],
                        costs: CostModel = DEFAULT_COSTS,
                        opt_price: Optional[np.ndarray] = None
                        ) -> CostBreakdown:
    """Price one translation map step by step.

    Step ``s`` runs optimised iff ``optimized_at[blocks[s]] <= s``; an
    optimised step whose dynamic edge is neither internal to a region
    nor leaves through a region tail is a side exit.  ``opt_price`` is
    the per-block cost of an optimised execution (measured costs),
    ``size * opt_cost`` when omitted.
    """
    sizes = np.asarray(block_sizes, dtype=float)
    blocks = trace.blocks.astype(np.int64)
    step_sizes = sizes[blocks]
    unopt_price = step_sizes * costs.interp_cost + costs.profile_overhead
    if opt_price is None:
        step_opt_price = step_sizes * costs.opt_cost
    else:
        step_opt_price = np.asarray(opt_price, dtype=float)[blocks]
    optimized = tmap.optimized_at[blocks] <= np.arange(len(blocks))

    unopt_cost = float(np.sum(np.where(~optimized, unopt_price, 0.0)))
    opt_cost = float(np.sum(np.where(optimized, step_opt_price, 0.0)))

    num_side_exits = 0
    if len(blocks) > 1 and tmap.internal_pairs:
        src = blocks[:-1]
        codes = src * trace.num_blocks + blocks[1:]
        inside = np.isin(codes, tmap.internal_pair_codes())
        tails = np.zeros(trace.num_blocks, dtype=bool)
        for block in tmap.tail_blocks:
            tails[block] = True
        side = optimized[:-1] & ~inside & ~tails[src]
        num_side_exits = int(np.sum(side))

    return CostBreakdown(
        unoptimized=unopt_cost, optimized=opt_cost,
        side_exits=num_side_exits * costs.side_exit_penalty,
        translation=float(tmap.instructions_translated(sizes) *
                          costs.translation_cost),
        num_side_exits=num_side_exits,
        optimized_fraction=(float(np.mean(optimized))
                            if len(blocks) else 0.0))


class ReferenceEvents(NamedTuple):
    """One block's executions, spelled out: its steps in order and
    ``taken_prefix[i]``, the taken outcomes among its first ``i``."""

    steps: np.ndarray
    taken_prefix: np.ndarray


def spelled_out(events: Mapping[int, BlockEvents]
                ) -> Dict[int, ReferenceEvents]:
    """An event index's stores decoded into :class:`ReferenceEvents`."""
    return {block: ReferenceEvents(ev.steps(), ev.taken_prefix())
            for block, ev in events.items()}


def reference_events(trace: ExecutionTrace) -> Dict[int, ReferenceEvents]:
    """The per-block event index, one scan of the trace per block.

    Each executed block gets its steps in order (``flatnonzero``) and
    the running count of its taken outcomes, in the type the production
    index promises for the run's length (``step_dtype``).
    """
    dtype = step_dtype(trace.num_steps)
    events: Dict[int, ReferenceEvents] = {}
    for block in sorted(set(trace.blocks.tolist())):
        steps = np.flatnonzero(trace.blocks == block).astype(dtype)
        prefix = np.zeros(len(steps) + 1, dtype=dtype)
        prefix[1:] = np.cumsum(trace.taken[steps] == 1)
        events[block] = ReferenceEvents(steps=steps, taken_prefix=prefix)
    return events


def reference_optimized_steps(trace: ExecutionTrace,
                              optimized_at: Sequence[float]
                              ) -> Tuple[np.ndarray, Dict[int, int]]:
    """Optimised steps per block, and optimised traversals per dynamic
    edge, from one gather of every step.

    Step ``s`` runs optimised iff ``optimized_at[blocks[s]] <= s``; it
    traverses the edge ``(blocks[s], blocks[s + 1])`` unless it is the
    last.  Edges are keyed by ``src * num_blocks + dst`` and include
    every edge the trace traverses, optimised or not.
    """
    blocks = trace.blocks.astype(np.int64)
    optimized = (np.asarray(optimized_at, dtype=float)[blocks] <=
                 np.arange(len(blocks)))
    per_block = np.bincount(blocks[optimized], minlength=trace.num_blocks)
    codes, edge_of_step = np.unique(
        blocks[:-1] * trace.num_blocks + blocks[1:], return_inverse=True)
    per_edge = np.bincount(edge_of_step, weights=optimized[:-1],
                           minlength=len(codes)).astype(np.int64)
    return per_block.astype(np.int64), dict(zip(codes.tolist(),
                                                 per_edge.tolist()))
