"""Synthetic SPEC2000 workload suite.

* :mod:`repro.workloads.generators` — CFG skeleton assembly.
* :mod:`repro.workloads.characters` — behaviour characters.
* :mod:`repro.workloads.spec` — benchmark definition, scaling constants
  and the registry.
* :mod:`repro.workloads.int_suite` / :mod:`repro.workloads.fp_suite` —
  the 12 INT + 14 FP stand-ins.
"""

from .characters import (BranchSpec, Character, CharacterConfig, as_behavior,
                         jitter, jitter_trips, realize_character, trips)
from .generators import (DRIVER_ROLE, BranchySegment, ChainSegment,
                         LoopInfo, LoopSegment, Workload, WorkloadBuilder,
                         build_workload)
from .spec import (BASE_THRESHOLD, NOMINAL_THRESHOLDS, SIM_THRESHOLDS,
                   THRESHOLD_SCALE, SyntheticBenchmark, all_benchmarks,
                   benchmark_names, fp_benchmarks, get_benchmark,
                   int_benchmarks, nominal_label, register, suite_names)

__all__ = [
    "BASE_THRESHOLD", "BranchSpec", "BranchySegment", "ChainSegment",
    "Character", "CharacterConfig", "DRIVER_ROLE", "LoopInfo", "LoopSegment",
    "NOMINAL_THRESHOLDS", "SIM_THRESHOLDS", "SyntheticBenchmark",
    "THRESHOLD_SCALE", "Workload", "WorkloadBuilder", "all_benchmarks",
    "as_behavior", "benchmark_names", "build_workload", "fp_benchmarks",
    "get_benchmark", "int_benchmarks", "jitter", "jitter_trips",
    "nominal_label", "realize_character", "register", "suite_names",
    "trips",
]
