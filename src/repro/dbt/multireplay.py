"""Multi-threshold replay: every INIP(T) of a sweep from one trace.

:class:`MultiThresholdReplay` holds one
:class:`~repro.dbt.replay.ThresholdReplayState` (candidate pool, freeze
steps, regions) per swept threshold over a shared trace, event index
and loop forest, and sweeps each threshold's registration stream
independently with the batched replay.  Threshold states never interact,
so every state ends exactly where a :class:`~repro.dbt.replay.ReplayDBT`
at that threshold would; ``tests/dbt/test_multireplay.py`` enforces it
snapshot-for-snapshot, region-for-region and event-for-event.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import LoopForest, find_loops
from ..obs.registry import inc
from ..obs.spans import span
from ..profiles.model import ProfileSnapshot
from ..stochastic.trace import ExecutionTrace
from .config import DBTConfig
from .replay import ThresholdReplayState


class MultiThresholdReplay:
    """Replays the two-phase pipeline at many thresholds over one trace.

    Args:
        trace: the recorded run shared by every threshold.
        cfg: static CFG the trace was produced from.
        thresholds: thresholds to sweep (duplicates collapse).
        base_config: DBT knobs; its threshold field is overridden per
            swept point.
        loops: optional precomputed loop forest.
    """

    def __init__(self, trace: ExecutionTrace, cfg: ControlFlowGraph,
                 thresholds: Sequence[int],
                 base_config: Optional[DBTConfig] = None,
                 loops: Optional[LoopForest] = None):
        if trace.num_blocks != cfg.num_nodes:
            raise ValueError("trace and CFG disagree on block count")
        if not thresholds:
            raise ValueError("at least one threshold is required")
        base_config = base_config or DBTConfig()
        self.trace = trace
        self.cfg = cfg
        self.loops = loops or find_loops(cfg)
        self.states: Dict[int, ThresholdReplayState] = {}
        for t in thresholds:
            if t not in self.states:
                self.states[t] = ThresholdReplayState(
                    trace, cfg, base_config.with_threshold(t), self.loops)
        self._ran = False

    @property
    def thresholds(self) -> List[int]:
        """Swept thresholds in ascending order."""
        return sorted(self.states)

    def run(self) -> "MultiThresholdReplay":
        """Sweep every threshold's registration stream, updating every
        state."""
        if self._ran:
            return self
        self._ran = True
        states = [self.states[t] for t in self.thresholds]
        windows = 0
        swept = 0
        with span("replay.multi_run", thresholds=len(states)):
            for state in states:
                stats = state.sweep()
                windows += stats.windows
                swept += stats.events
        inc("replay.kernel.batched.windows", windows)
        inc("replay.kernel.batched.events", swept)

        # One sweep of the trace, however many thresholds ride it:
        # replay.runs / replay.blocks_translated count the sweep, not the
        # states (see the obs catalog), matching the cost model.
        inc("replay.runs")
        inc("replay.blocks_translated", len(self.trace.events()))
        for state in states:
            inc("replay.retranslations", len(state.optimized))
            inc("replay.regions_formed", len(state.regions))
            inc("replay.optimization_events",
                len(state.optimization_events))
        return self

    # -- output ---------------------------------------------------------------------

    def state(self, threshold: int) -> ThresholdReplayState:
        """The finished state of one threshold (runs on first call)."""
        self.run()
        return self.states[threshold]

    def snapshots(self, input_name: str = "ref"
                  ) -> Dict[int, ProfileSnapshot]:
        """INIP(T) snapshots of every swept threshold, ascending."""
        self.run()
        return {t: self.states[t].snapshot(input_name)
                for t in self.thresholds}

    def __iter__(self) -> Iterator[ThresholdReplayState]:
        self.run()
        return iter(self.states[t] for t in self.thresholds)
