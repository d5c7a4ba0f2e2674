"""The live two-phase translator: an execution listener that profiles,
registers, triggers optimisation, forms regions, and freezes counters.

This is the reference implementation of the IA32EL pipeline the paper
describes.  It subscribes to the block/branch event protocol, so it runs
unchanged on the instruction interpreter, on a recorded trace fed back
event by event, or on any other event source.  For threshold sweeps over
large traces, use the algebraically identical but much faster
:class:`repro.dbt.replay.ReplayDBT`.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import LoopForest, find_loops
from ..obs.registry import inc
from ..profiles.model import ProfileSnapshot, Region
from .config import DBTConfig
from .counters import CounterTable
from .pool import CandidatePool
from .regions import FormationResult, RegionFormer


class TwoPhaseDBT:
    """Live two-phase dynamic binary translator (profiling + optimisation).

    Args:
        cfg: static CFG of the program being translated.
        config: thresholds and region-formation knobs.
        loops: precomputed loop forest (computed on demand otherwise).

    Use as an :class:`~repro.interp.events.ExecutionListener`; call
    :meth:`snapshot` at any point to obtain the INIP profile accumulated so
    far (typically at end of run).
    """

    def __init__(self, cfg: ControlFlowGraph, config: DBTConfig,
                 loops: Optional[LoopForest] = None):
        self.cfg = cfg
        self.config = config
        self.loops = loops or find_loops(cfg)
        self.counters = CounterTable(cfg.num_nodes)
        self.pool = CandidatePool(config)
        self.former = RegionFormer(cfg, self.loops, config)
        self.regions: List[Region] = []
        self.optimized: Set[int] = set()
        self.step = 0
        self._pending_optimize = False
        #: log of (step, blocks frozen) per optimisation event.
        self.optimization_events: List[tuple] = []

    # -- ExecutionListener protocol -------------------------------------------

    def on_block(self, block_id: int) -> None:
        """One block execution: count, maybe register, maybe optimise."""
        self.step += 1
        use = self.counters.count_use(block_id)
        if use == 1:
            inc("translator.blocks_translated")
        if use and use % self.config.threshold == 0:
            if self.pool.register(block_id):
                # Optimise only after this execution's branch outcome (if
                # any) has been counted, so the triggering execution is
                # fully included in the initial profile.
                self._pending_optimize = True
        if self._pending_optimize and not self.cfg.is_branch(block_id):
            self._run_optimization()

    def on_branch(self, block_id: int, taken: bool) -> None:
        """The current block's branch outcome: count, then maybe optimise."""
        self.counters.count_taken(block_id, taken)
        if self._pending_optimize:
            self._run_optimization()

    # -- optimisation phase ----------------------------------------------------

    def _run_optimization(self) -> None:
        self._pending_optimize = False
        drained = self.pool.drain()
        pool_blocks = [b for b in drained if b not in self.optimized]
        if len(pool_blocks) != len(drained):
            inc("pool.evictions", len(drained) - len(pool_blocks))
        if not pool_blocks:
            return
        result: FormationResult = self.former.form(
            pool_blocks, self.counters.counters, self.optimized,
            next_region_id=len(self.regions), formed_at=self.step)
        self.regions.extend(result.regions)
        for block in result.newly_optimized:
            self.counters.freeze(block, self.step)
        self.optimized.update(result.newly_optimized)
        self.optimization_events.append(
            (self.step, sorted(result.newly_optimized)))
        inc("translator.optimization_events")
        inc("translator.regions_formed", len(result.regions))
        inc("translator.retranslations", len(result.newly_optimized))

    # -- output ------------------------------------------------------------------

    def snapshot(self, input_name: str = "ref") -> ProfileSnapshot:
        """The INIP(T) profile: frozen counters plus formed regions."""
        snapshot = ProfileSnapshot(
            label=f"INIP({self.config.threshold})",
            input_name=input_name,
            threshold=self.config.threshold,
            blocks=self.counters.block_profiles(),
            regions=list(self.regions),
            total_steps=self.step,
            profiling_ops=self.counters.profiling_ops)
        snapshot.validate()
        return snapshot
