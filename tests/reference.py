"""Reference engines the production fast paths are tested against.

Production has one engine per stage: the vector walker records traces
(:func:`repro.stochastic.record_trace`) and the batched windowed sweep
replays them (:func:`repro.dbt.batchreplay.run_batched_replay`).  The
slow, obviously-correct implementations they must match event for event
live here, where only tests can reach them:

* :func:`walker_trace` — the scalar :class:`~repro.stochastic.CFGWalker`,
  one Python iteration per step, with ``record_trace``'s signature;
* :func:`heap_replay` — one threshold's registration stream drained off
  a heap, one Python iteration per registration, with
  ``run_batched_replay``'s ``(positions, config, optimize)`` callback
  contract.

The ``oracle_engines`` fixture (``tests/conftest.py``) swaps both into
the study pipeline; :func:`reference_replay` runs one threshold through
the heap walk directly.
"""

from __future__ import annotations

import heapq
from typing import List, Mapping, Set, Tuple

import numpy as np

from repro.cfg import ControlFlowGraph
from repro.cfg.loops import find_loops
from repro.dbt import CandidatePool, DBTConfig, ThresholdReplayState
from repro.dbt.batchreplay import OptimizeFn
from repro.dbt.replay import registration_positions
from repro.stochastic import CFGWalker, ExecutionTrace, ProgramBehavior


def walker_trace(cfg: ControlFlowGraph, behavior: ProgramBehavior,
                 max_steps: int, seed: int = 0) -> ExecutionTrace:
    """Record one run with the scalar walker."""
    return CFGWalker(cfg, behavior, seed=seed).run(max_steps)


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
