"""Static profile estimation and its comparison against AVEP.

Combines the branch heuristics with the Markov block-frequency
propagation of :mod:`repro.cfg.freq` to produce a complete *static
profile* (Wu–Larus [20]: "Static Branch Frequency and Program Profile
Analysis"), then evaluates it with the same §2 metrics the study applies
to the initial and training profiles — giving the zero-profiling
baseline the dynamic translator's initial prediction should beat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..cfg.freq import propagate_frequencies
from ..cfg.graph import ControlFlowGraph
from ..cfg.loops import LoopForest, find_loops
from ..core.comparison import ComparisonResult
from ..core.matching import MatchPair, bp_match, mismatch_rate
from ..core.metrics import WeightedPair, weighted_sd
from ..ir.program import Program
from ..profiles.model import ProfileSnapshot
from .heuristics import estimate_all_branches


@dataclass
class StaticProfile:
    """A fully static profile: branch probabilities + block frequencies."""

    branch_probabilities: Dict[int, float]
    frequencies: np.ndarray

    def branch_probability(self, block: int) -> Optional[float]:
        """Estimated taken probability of ``block`` (None if no branch)."""
        return self.branch_probabilities.get(block)


def static_profile(cfg: ControlFlowGraph,
                   loops: Optional[LoopForest] = None,
                   program: Optional[Program] = None) -> StaticProfile:
    """Estimate branch probabilities and propagate block frequencies.

    Loop gains are clamped below 1 (a statically predicted probability-1
    cycle would make the flow system singular), matching [20]'s treatment
    of irreducible cases.
    """
    loops = loops or find_loops(cfg)
    estimates = estimate_all_branches(cfg, loops, program)
    probabilities = {b: min(max(e.probability, 0.01), 0.99)
                     for b, e in estimates.items()}
    try:
        frequencies = propagate_frequencies(cfg, probabilities)
    except np.linalg.LinAlgError:
        # Cycles of unconditional edges (no escape): fall back to flat
        # frequencies; only the probabilities are usable then.
        frequencies = np.ones(cfg.num_nodes)
    return StaticProfile(branch_probabilities=probabilities,
                         frequencies=frequencies)


def compare_static_to_avep(cfg: ControlFlowGraph,
                           avep: ProfileSnapshot,
                           loops: Optional[LoopForest] = None,
                           program: Optional[Program] = None
                           ) -> ComparisonResult:
    """Sd.BP and mismatch of the static estimator against AVEP.

    Weights come from AVEP (the paper's convention); blocks AVEP never
    executed carry no weight.
    """
    profile = static_profile(cfg, loops, program)
    pairs = []
    for branch, predicted in sorted(profile.branch_probabilities.items()):
        weight = float(avep.block_frequency(branch))
        average = avep.branch_probability(branch)
        if weight <= 0.0 or average is None:
            continue
        pairs.append(WeightedPair(predicted, average, weight))
    match_pairs = [MatchPair(p.predicted, p.average, p.weight)
                   for p in pairs]
    return ComparisonResult(
        sd_bp=weighted_sd(pairs),
        bp_mismatch=mismatch_rate(match_pairs, matcher=bp_match),
        sd_cp=None, sd_lp=None, lp_mismatch=None,
        num_bp_units=len(pairs),
        bp_weight_covered=sum(p.weight for p in pairs))
