"""Static branch prediction and static profile estimation (Wu–Larus
[20]) — the zero-profiling baseline for the initial-prediction study."""

from .estimator import StaticProfile, compare_static_to_avep, static_profile
from .heuristics import (ALL_HEURISTICS, BranchEstimate, dempster_shafer,
                         estimate_all_branches, estimate_branch)

__all__ = [
    "ALL_HEURISTICS", "BranchEstimate", "StaticProfile",
    "compare_static_to_avep", "dempster_shafer", "estimate_all_branches",
    "estimate_branch", "static_profile",
]
