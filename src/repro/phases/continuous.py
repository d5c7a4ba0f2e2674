"""Selective continuous re-profiling (paper §5 future work).

The paper suggests that benchmarks with phase behaviour would benefit from
longer or multiple profiling phases: "effectively monitoring region side
exits to trigger retranslation and adaptation looks promising."  This
module simulates that adaptive scheme on a recorded trace:

* start from the ordinary initial profile (counters frozen at INIP(T));
* keep watching each optimised branch with *sampled* windows;
* when a watched branch's recent behaviour deviates from its frozen
  estimate by more than a threshold, re-profile it (collect another T
  uses) and replace the estimate — modelling a retranslation.

The outcome is a per-branch estimate stream whose accuracy can be compared
against the plain initial profile, plus the extra profiling operations the
adaptivity cost — exactly the trade-off the paper's §1 poses ("whether the
continuous optimization ... is able to offset the overhead").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.metrics import WeightedPair, weighted_sd
from ..profiles.model import ProfileSnapshot
from ..stochastic.trace import ExecutionTrace
from .detector import windowed_rates


@dataclass
class AdaptiveEstimate:
    """Estimate history of one branch under adaptive re-profiling.

    ``segments`` is a list of ``(from_step, probability)`` pairs: the
    estimate in force from that step on.
    """

    block_id: int
    segments: List[tuple] = field(default_factory=list)
    reprofiles: int = 0
    extra_ops: int = 0

    def estimate_at(self, step: int) -> Optional[float]:
        """The estimate in force at ``step`` (None before the first)."""
        current: Optional[float] = None
        for from_step, p in self.segments:
            if from_step <= step:
                current = p
            else:
                break
        return current

    @property
    def final_estimate(self) -> Optional[float]:
        """The last estimate produced."""
        return self.segments[-1][1] if self.segments else None


@dataclass
class AdaptiveOutcome:
    """Result of simulating adaptive re-profiling over a whole trace."""

    estimates: Dict[int, AdaptiveEstimate]
    total_reprofiles: int
    extra_profiling_ops: int

    def tracking_error(self, trace: ExecutionTrace, window_steps: int,
                       min_uses: int = 20) -> Optional[float]:
        """Use-weighted SD between the in-force estimate and the actual
        windowed behaviour — how well the scheme tracks the program."""
        pairs: List[WeightedPair] = []
        for block_id, est in self.estimates.items():
            rates = windowed_rates(trace, block_id, window_steps)
            probs = rates.probabilities(min_uses)
            for window, p in enumerate(probs):
                if np.isnan(p):
                    continue
                current = est.estimate_at(window * window_steps)
                if current is None:
                    continue
                pairs.append(WeightedPair(
                    predicted=current, average=float(p),
                    weight=float(rates.use[window])))
        return weighted_sd(pairs)


class SelectiveReprofiler:
    """Simulates side-exit-triggered re-profiling of optimised branches.

    Args:
        threshold: profile length per (re)profiling episode, in uses —
            the retranslation threshold T.
        deviation: estimate-vs-recent-window deviation that triggers a
            re-profile.
        window_steps: monitoring window length in global steps.
        min_uses: monitoring windows with fewer uses are ignored.
        max_reprofiles: per-branch cap (continuous optimisation must
            bound its own overhead).
    """

    def __init__(self, threshold: int, deviation: float = 0.15,
                 window_steps: int = 50_000, min_uses: int = 30,
                 max_reprofiles: int = 8):
        self.threshold = threshold
        self.deviation = deviation
        self.window_steps = window_steps
        self.min_uses = min_uses
        self.max_reprofiles = max_reprofiles

    def run(self, trace: ExecutionTrace,
            inip: ProfileSnapshot) -> AdaptiveOutcome:
        """Simulate adaptation for every optimised branch of ``inip``."""
        events = trace.events()
        estimates: Dict[int, AdaptiveEstimate] = {}
        total_reprofiles = 0
        extra_ops = 0

        optimized = set(inip.optimized_blocks())
        for block_id in sorted(optimized):
            profile = inip.blocks.get(block_id)
            ev = events.get(block_id)
            if profile is None or ev is None or profile.use <= 0:
                continue
            est = AdaptiveEstimate(block_id=block_id)
            start = profile.frozen_at or 0
            est.segments.append((start, profile.branch_probability))
            estimates[block_id] = est

            rates = windowed_rates(trace, block_id, self.window_steps)
            probs = rates.probabilities(self.min_uses)
            window = start // self.window_steps + 1
            while window < len(probs):
                if est.reprofiles >= self.max_reprofiles:
                    break
                p = probs[window]
                current = est.segments[-1][1]
                if not np.isnan(p) and current is not None and \
                        abs(p - current) >= self.deviation:
                    # Re-profile: collect the next `threshold` uses
                    # starting at this window.
                    window_start = window * self.window_steps
                    first = ev.use_before(window_start)
                    last = min(first + self.threshold, ev.use)
                    uses = last - first
                    if uses <= 0:
                        break
                    taken = ev.taken_upto(last) - ev.taken_upto(first)
                    new_p = taken / uses
                    end_step = int(ev.steps_at([last - 1])[0]) + 1
                    est.segments.append((end_step, new_p))
                    est.reprofiles += 1
                    est.extra_ops += uses + taken
                    total_reprofiles += 1
                    extra_ops += uses + taken
                    window = end_step // self.window_steps + 1
                else:
                    window += 1

        return AdaptiveOutcome(estimates=estimates,
                               total_reprofiles=total_reprofiles,
                               extra_profiling_ops=extra_ops)


def compare_static_vs_adaptive(trace: ExecutionTrace, inip: ProfileSnapshot,
                               reprofiler: SelectiveReprofiler,
                               window_steps: int = 50_000) -> Dict[str, float]:
    """Tracking error of the frozen initial profile vs the adaptive scheme.

    Returns a dict with ``static_error``, ``adaptive_error``,
    ``reprofiles`` and ``extra_ops`` — the raw material of the
    phase-awareness ablation.
    """
    adaptive = reprofiler.run(trace, inip)

    static = AdaptiveOutcome(
        estimates={
            b: AdaptiveEstimate(
                block_id=b,
                segments=[(p.frozen_at or 0, p.branch_probability)])
            for b, p in inip.blocks.items()
            if p.branch_probability is not None and p.is_frozen
        },
        total_reprofiles=0, extra_profiling_ops=0)

    static_error = static.tracking_error(trace, window_steps)
    adaptive_error = adaptive.tracking_error(trace, window_steps)
    return {
        "static_error": float("nan") if static_error is None
        else static_error,
        "adaptive_error": float("nan") if adaptive_error is None
        else adaptive_error,
        "reprofiles": float(adaptive.total_reprofiles),
        "extra_ops": float(adaptive.extra_profiling_ops),
    }
