"""Trace-replay DBT: derive INIP(T) for any threshold from one trace.

Running the live translator once per (benchmark, threshold) pair would
re-walk the whole event stream for every threshold.  Because the DBT's
decisions depend only on *when each block reaches multiples of T* — sparse
events — the pipeline can be replayed over the per-block event index of a
recorded :class:`~repro.stochastic.trace.ExecutionTrace` in time
proportional to the number of registrations, not the number of steps.
The registration stream is drained in sorted windows by
:func:`repro.dbt.batchreplay.run_batched_replay`.

The replay is algebraically identical to :class:`repro.dbt.translator
.TwoPhaseDBT` fed the same trace; ``tests/dbt/test_replay_equivalence.py``
asserts snapshot-for-snapshot equality.  For sweeping many thresholds over
one trace, see :class:`repro.dbt.multireplay.MultiThresholdReplay`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import LoopForest, find_loops
from ..obs.profile import sampled_span
from ..obs.registry import inc
from ..obs.spans import span
from ..profiles.model import BlockProfile, ProfileSnapshot, Region
from ..stochastic.trace import BlockEvents, ExecutionTrace
from .batchreplay import ReplaySweepStats, run_batched_replay
from .codecache import TranslationMap, translation_map_from_replay
from .config import DBTConfig
from .regions import RegionFormer


def registration_positions(events: Mapping[int, BlockEvents],
                           threshold: int) -> Dict[int, np.ndarray]:
    """Per block, the trace positions of its registration events.

    The k-th registration of a block is its ``(k*T)``-th execution, i.e.
    the step of its execution ``k*T - 1`` (0-based), selected for every
    ``k`` at once.  The production sweep gathers registrations window by
    window instead (:func:`~repro.dbt.batchreplay.run_batched_replay`);
    this whole-stream form feeds the reference heap walk and tests.
    """
    positions: Dict[int, np.ndarray] = {}
    for block, ev in events.items():
        if ev.use >= threshold:
            positions[block] = ev.steps_at(
                np.arange(threshold - 1, ev.use, threshold))
    return positions


def frozen_counter_view(events: Mapping[int, BlockEvents],
                        freeze_step: Mapping[int, int],
                        now: int) -> Callable[[int], Tuple[int, int]]:
    """Counter view at live-step ``now`` (= trace position + 1).

    A block's counters stop at its freeze step; unfrozen blocks report
    their counts up to ``now``.  This is the optimiser's (frozen-aware)
    view of the profile, shared by the single- and multi-threshold
    replays.  Each block's counts are looked up once per view: region
    formation asks about most blocks more than once, and a block frozen
    while the view is in use is frozen at ``now``, which leaves its
    counts as they were.
    """
    events_get = events.get
    freeze_get = freeze_step.get
    seen: Dict[int, Tuple[int, int]] = {}

    def view(block: int) -> Tuple[int, int]:
        counts = seen.get(block)
        if counts is None:
            ev = events_get(block)
            if ev is None:
                return (0, 0)
            limit = freeze_get(block)
            use = ev.use_before(now if limit is None else min(now, limit))
            counts = seen[block] = (use, ev.taken_upto(use))
        return counts

    return view


def snapshot_from_state(trace: ExecutionTrace,
                        events: Mapping[int, BlockEvents],
                        config: DBTConfig,
                        freeze_step: Mapping[int, int],
                        regions: List[Region],
                        input_name: str = "ref") -> ProfileSnapshot:
    """Distil a finished replay state into the INIP(T) snapshot."""
    blocks: Dict[int, BlockProfile] = {}
    profiling_ops = 0
    freeze_get = freeze_step.get
    for block, ev in events.items():
        limit = freeze_get(block)
        if limit is None:
            use, taken = ev.use, ev.taken
        else:
            use = ev.use_before(limit)
            taken = ev.taken_upto(use)
        if use > 0:
            blocks[block] = BlockProfile(
                block_id=block, use=use, taken=taken, frozen_at=limit)
        profiling_ops += use + taken
    snapshot = ProfileSnapshot(
        label=f"INIP({config.threshold})",
        input_name=input_name,
        threshold=config.threshold,
        blocks=blocks,
        regions=list(regions),
        total_steps=trace.num_steps,
        profiling_ops=profiling_ops)
    snapshot.validate()
    return snapshot


class ThresholdReplayState:
    """One threshold's two-phase pipeline state over a recorded trace.

    After :meth:`sweep` this carries the threshold's freeze steps,
    regions, optimised set and optimisation events next to the
    ``trace``/``cfg``/``config``/``loops`` it was replayed from, which is
    everything :class:`~repro.core.study.ThresholdOutcome` and
    :func:`~repro.dbt.codecache.translation_map_from_replay` read.
    :class:`~repro.dbt.multireplay.MultiThresholdReplay` holds one per
    swept threshold; :class:`ReplayDBT` is the self-running single-
    threshold form.
    """

    __slots__ = ("trace", "cfg", "config", "loops", "former", "freeze_step",
                 "regions", "optimized", "optimization_events", "_events",
                 "_tmap")

    def __init__(self, trace: ExecutionTrace, cfg: ControlFlowGraph,
                 config: DBTConfig, loops: LoopForest):
        if trace.num_blocks != cfg.num_nodes:
            raise ValueError("trace and CFG disagree on block count")
        self.trace = trace
        self.cfg = cfg
        self.config = config
        self.loops = loops
        self.former = RegionFormer(cfg, loops, config)
        self.freeze_step: Dict[int, int] = {}
        self.regions: List[Region] = []
        self.optimized: Set[int] = set()
        self.optimization_events: List[Tuple[int, List[int]]] = []
        self._events = trace.events()
        self._tmap: Optional[TranslationMap] = None

    def sweep(self) -> ReplaySweepStats:
        """Drive this threshold's registration stream through the
        pipeline, updating the state in place."""
        return run_batched_replay(self._events, self.config,
                                  self._optimize_blocks,
                                  self.trace.num_blocks)

    def _optimize_blocks(self, drained: List[int], now: int) -> Set[int]:
        """Run the optimisation phase over a drained pool; returns the
        newly frozen blocks."""
        pool_blocks = [b for b in drained if b not in self.optimized]
        if len(pool_blocks) != len(drained):
            inc("pool.evictions", len(drained) - len(pool_blocks))
        if not pool_blocks:
            return set()
        counters = frozen_counter_view(self._events, self.freeze_step, now)
        with sampled_span("region.form", threshold=self.config.threshold,
                          blocks=len(pool_blocks)):
            result = self.former.form(
                pool_blocks, counters, self.optimized,
                next_region_id=len(self.regions), formed_at=now)
        self.regions.extend(result.regions)
        for b in result.newly_optimized:
            self.freeze_step[b] = now
        self.optimized.update(result.newly_optimized)
        self.optimization_events.append((now, sorted(result.newly_optimized)))
        return result.newly_optimized

    # -- output ---------------------------------------------------------------------

    def snapshot(self, input_name: str = "ref") -> ProfileSnapshot:
        """The INIP(T) profile of this threshold's state."""
        return snapshot_from_state(self.trace, self._events, self.config,
                                   self.freeze_step, self.regions,
                                   input_name)

    def translation_map(self) -> TranslationMap:
        """The code-cache summary for the perf model (cached)."""
        if self._tmap is None:
            self._tmap = translation_map_from_replay(self)
        return self._tmap


class ReplayDBT(ThresholdReplayState):
    """Replays the two-phase pipeline over a recorded trace.

    Args:
        trace: the recorded run (shared across thresholds).
        cfg: static CFG the trace was produced from.
        config: DBT configuration (the threshold lives here).
        loops: optional precomputed loop forest (recomputed otherwise —
            pass it in when sweeping thresholds over one CFG).
    """

    __slots__ = ("_ran",)

    def __init__(self, trace: ExecutionTrace, cfg: ControlFlowGraph,
                 config: DBTConfig, loops: Optional[LoopForest] = None):
        super().__init__(trace, cfg, config, loops or find_loops(cfg))
        self._ran = False

    def run(self) -> "ReplayDBT":
        """Process every registration event in trace order."""
        if self._ran:
            return self
        self._ran = True
        with span("replay.run", threshold=self.config.threshold):
            stats = self.sweep()
        inc("replay.kernel.batched.windows", stats.windows)
        inc("replay.kernel.batched.events", stats.events)
        # Every block seen in the trace got a quick translation; the
        # optimised set was retranslated into regions.
        inc("replay.runs")
        inc("replay.blocks_translated", len(self._events))
        inc("replay.retranslations", len(self.optimized))
        inc("replay.regions_formed", len(self.regions))
        inc("replay.optimization_events", len(self.optimization_events))
        return self

    def snapshot(self, input_name: str = "ref") -> ProfileSnapshot:
        """The INIP(T) profile (runs the replay on first call)."""
        self.run()
        return super().snapshot(input_name)

    def translation_map(self) -> TranslationMap:
        """The code-cache summary for the perf model (cached; runs the
        replay on first call)."""
        self.run()
        return super().translation_map()


def inip_from_trace(trace: ExecutionTrace, cfg: ControlFlowGraph,
                    config: DBTConfig, loops: Optional[LoopForest] = None,
                    input_name: str = "ref") -> ProfileSnapshot:
    """One-shot helper: replay ``trace`` and return the INIP(T) snapshot."""
    return ReplayDBT(trace, cfg, config, loops=loops).snapshot(input_name)
