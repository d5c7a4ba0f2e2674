"""End-to-end study driver for one benchmark (paper §2 methodology).

For a benchmark (a CFG plus one recorded reference trace and one training
trace) this module produces everything the evaluation section plots:

1. ``AVEP`` — whole-run profile of the reference trace (no optimisation);
2. ``INIP(T)`` for every threshold T — replayed over the same reference
   trace, regions and all;
3. ``INIP(train)`` — whole-run profile of the training trace;
4. all §2 comparisons of (2) and (3) against (1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import LoopForest, find_loops
from ..dbt.config import DBTConfig
from ..dbt.multireplay import MultiThresholdReplay
from ..dbt.replay import ThresholdReplayState
from ..obs.spans import span
from ..profiles.merge import avep_from_trace
from ..profiles.model import ProfileSnapshot
from ..stochastic.trace import ExecutionTrace, RunCounts
from .comparison import (ComparisonResult, compare_flat_profiles,
                         compare_inip_to_avep)
from .train_regions import TrainRegionComparison, compare_train_regions


@dataclass
class ThresholdOutcome:
    """INIP(T) and its comparison against AVEP, for one threshold.

    ``replay`` is the finished pipeline state the snapshot came from — a
    :class:`~repro.dbt.replay.ThresholdReplayState` of the sweep, or a
    standalone :class:`~repro.dbt.replay.ReplayDBT` (a subclass); both
    expose the same ``regions``/``freeze_step``/``translation_map()``
    surface.
    """

    threshold: int
    snapshot: ProfileSnapshot
    comparison: ComparisonResult
    replay: ThresholdReplayState = field(repr=False)

    @property
    def profiling_ops(self) -> int:
        """Counter increments spent collecting this initial profile."""
        return self.snapshot.profiling_ops

    @property
    def num_regions(self) -> int:
        """Regions formed by the optimisation phase."""
        return len(self.snapshot.regions)


@dataclass
class BenchmarkStudy:
    """All study artefacts of one benchmark.

    Attributes:
        name: benchmark name.
        cfg: its static CFG.
        avep: whole-run reference profile.
        train_profile: whole-run training-input profile (INIP(train)).
        train_comparison: INIP(train) vs AVEP (the reference point).
        train_region_comparison: Sd.CP(train)/Sd.LP(train) from regions
            formed out of the training profile (the paper's §5 future
            work, implemented).
        outcomes: per-threshold INIP(T) results.
    """

    name: str
    cfg: ControlFlowGraph
    avep: ProfileSnapshot
    train_profile: ProfileSnapshot
    train_comparison: ComparisonResult
    train_region_comparison: TrainRegionComparison
    outcomes: Dict[int, ThresholdOutcome]

    @property
    def thresholds(self) -> List[int]:
        """Swept thresholds in ascending order."""
        return sorted(self.outcomes)

    @property
    def train_ops(self) -> int:
        """Profiling operations of the full training run (Fig 18 base)."""
        return self.train_profile.profiling_ops


def run_threshold_sweep(name: str,
                        cfg: ControlFlowGraph,
                        ref_trace: ExecutionTrace,
                        train_trace: Union[ExecutionTrace, RunCounts],
                        thresholds: Sequence[int],
                        base_config: Optional[DBTConfig] = None,
                        loops: Optional[LoopForest] = None
                        ) -> BenchmarkStudy:
    """Run the full §2 methodology for one benchmark.

    Args:
        name: benchmark name (carried into the result).
        cfg: static CFG both traces were produced from.
        ref_trace: reference-input run (AVEP and every INIP(T) come from
            this single trace, so differences are purely due to profile
            truncation and region structure — the paper's controlled
            comparison).
        train_trace: training-input run (INIP(train)); only its
            whole-run counts are read, so a count-only
            :class:`~repro.stochastic.trace.RunCounts` is enough.
        thresholds: retranslation thresholds to sweep.
        base_config: DBT knobs; its threshold field is overridden per
            sweep point.
        loops: optional precomputed loop forest.
    """
    base_config = base_config or DBTConfig()
    loops = loops or find_loops(cfg)

    with span("sweep.profiles", bench=name):
        avep = avep_from_trace(ref_trace, input_name="ref", label="AVEP")
        train_profile = avep_from_trace(train_trace, input_name="train",
                                        label="INIP(train)")
        train_comparison = compare_flat_profiles(cfg, train_profile, avep)
        train_region_comparison = compare_train_regions(
            cfg, train_profile, avep, config=base_config, loops=loops)

    # Every threshold replays the same reference trace with its own
    # pool and freeze state, sharing the event index and loop forest
    # (each state equals a standalone ReplayDBT; see repro.dbt.multireplay).
    multi = MultiThresholdReplay(ref_trace, cfg, thresholds,
                                 base_config=base_config, loops=loops).run()
    outcomes: Dict[int, ThresholdOutcome] = {}
    for threshold in dict.fromkeys(thresholds):
        state = multi.state(threshold)
        with span("sweep.snapshot", bench=name, threshold=threshold):
            snapshot = state.snapshot(input_name="ref")
        with span("sweep.navep", bench=name, threshold=threshold):
            comparison = compare_inip_to_avep(cfg, snapshot, avep)
        outcomes[threshold] = ThresholdOutcome(
            threshold=threshold, snapshot=snapshot, comparison=comparison,
            replay=state)

    return BenchmarkStudy(
        name=name, cfg=cfg, avep=avep, train_profile=train_profile,
        train_comparison=train_comparison,
        train_region_comparison=train_region_comparison,
        outcomes=outcomes)
