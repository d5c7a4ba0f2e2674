"""The paper's contribution: initial-prediction accuracy methodology.

* :mod:`repro.core.normalize` — AVEP→NAVEP duplicated-graph construction.
* :mod:`repro.core.markov` — Markov frequency recovery for duplicated
  copies (the MKL linear solve of the paper, on numpy/scipy).
* :mod:`repro.core.completion` / :mod:`repro.core.loopback` — region
  completion and loop-back probability propagation.
* :mod:`repro.core.metrics` — Sd.BP / Sd.CP / Sd.LP weighted SDs.
* :mod:`repro.core.matching` — BP range and trip-count class matching.
* :mod:`repro.core.comparison` — the offline profile-comparison tool.
* :mod:`repro.core.study` — per-benchmark threshold sweeps.
"""

from .altmetrics import (key_matching, order_based_report,
                         overlap_percentage, weight_matching)
from .comparison import (ComparisonResult, compare_flat_profiles,
                         compare_inip_to_avep)
from .completion import BranchProbabilityFn, completion_probability
from .loopback import loopback_probability
from .markov import NormalizedProfile, normalize_avep
from .matching import (BPRange, MatchPair, TripCountClass, bp_match,
                       bp_range, lp_class, lp_match, mismatch_rate,
                       trip_count_class)
from .metrics import WeightedPair, weighted_sd
from .normalize import CopyRef, DuplicatedGraph
from .study import BenchmarkStudy, ThresholdOutcome, run_threshold_sweep
from .train_regions import (TrainRegionComparison, compare_train_regions,
                            form_regions_from_profile)

__all__ = [
    "BPRange", "BenchmarkStudy", "BranchProbabilityFn", "ComparisonResult",
    "CopyRef", "DuplicatedGraph", "MatchPair", "NormalizedProfile",
    "ThresholdOutcome", "TrainRegionComparison", "TripCountClass", "WeightedPair", "bp_match",
    "bp_range", "compare_flat_profiles",
    "compare_inip_to_avep", "compare_train_regions",
    "completion_probability",
    "form_regions_from_profile",
    "loopback_probability", "lp_class", "lp_match", "mismatch_rate",
    "normalize_avep", "run_threshold_sweep", "trip_count_class",
    "weighted_sd",
    "key_matching", "order_based_report", "overlap_percentage",
    "weight_matching",
]
