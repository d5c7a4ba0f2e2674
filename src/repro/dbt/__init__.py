"""The simulated two-phase dynamic binary translator.

* :mod:`repro.dbt.config` — pipeline knobs (:class:`DBTConfig`).
* :mod:`repro.dbt.counters` — the use/taken counter table with freezing.
* :mod:`repro.dbt.pool` — candidate pool and retranslation triggers.
* :mod:`repro.dbt.regions` — optimisation-phase region formation.
* :mod:`repro.dbt.translator` — the live, event-driven translator.
* :mod:`repro.dbt.replay` — threshold sweeps over recorded traces.
* :mod:`repro.dbt.multireplay` — sweeps of many thresholds over one trace.
* :mod:`repro.dbt.batchreplay` — the batched windowed replay sweep.
* :mod:`repro.dbt.codecache` — block-level translation summaries for the
  performance model.
"""

from .codecache import TranslationMap, translation_map_from_replay
from .config import DBTConfig
from .counters import CounterTable
from .multireplay import MultiThresholdReplay
from .pool import CandidatePool
from .regions import FormationResult, RegionFormer
from .replay import ReplayDBT, ThresholdReplayState
from .translator import TwoPhaseDBT

__all__ = [
    "CandidatePool", "CounterTable", "DBTConfig", "FormationResult",
    "MultiThresholdReplay", "RegionFormer", "ReplayDBT",
    "ThresholdReplayState", "TranslationMap", "TwoPhaseDBT",
    "translation_map_from_replay",
]
