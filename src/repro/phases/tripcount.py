"""Continuous trip-count profiling (paper §5, reference [21]).

The paper finds the initial profile inadequate for predicting loop trip
counts on several INT benchmarks and points to lightweight continuous trip
count collection (Wu/Breternitz/Devor, INTERACT-8) as the remedy.  This
module extracts per-loop trip-count streams from a trace and evaluates how
quickly a continuous monitor converges to the correct trip-count class,
compared to the one-shot initial profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.matching import TripCountClass, lp_class, trip_count_class
from ..stochastic.trace import ExecutionTrace


@dataclass
class TripSample:
    """One completed loop execution: entry step and its trip count."""

    step: int
    trips: int


def extract_trips(trace: ExecutionTrace, latch: int) -> List[TripSample]:
    """Trip counts of the loop latched by ``latch`` across the run.

    A trip sequence is a maximal run of ``taken`` latch outcomes closed by
    a ``fall`` (loop exit); an unterminated final sequence (the run ended
    mid-loop) is also reported.
    """
    events = trace.events().get(latch)
    if events is None:
        return []
    outcomes = np.diff(events.taken_prefix())  # 1 = taken (loop back)
    steps = events.steps()
    samples: List[TripSample] = []
    start_index = 0
    for i, outcome in enumerate(outcomes):
        if outcome == 0:
            samples.append(TripSample(step=int(steps[start_index]),
                                      trips=i - start_index + 1))
            start_index = i + 1
    if start_index < len(outcomes):
        samples.append(TripSample(step=int(steps[start_index]),
                                  trips=len(outcomes) - start_index))
    return samples


@dataclass
class MonitorReport:
    """Accuracy of a trip-count predictor over the run."""

    samples: int
    correct: int

    @property
    def accuracy(self) -> float:
        """Fraction of loop executions whose class was predicted right."""
        return self.correct / self.samples if self.samples else 0.0


class ContinuousTripCounter:
    """Lightweight continuous trip-count monitor.

    Maintains an exponential moving average of observed trip counts and
    predicts each loop execution's class from the average *so far* — the
    adaptive alternative to trusting the initial profile forever.

    Args:
        alpha: EMA weight of each new observation.
    """

    def __init__(self, alpha: float = 0.2):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha

    def evaluate(self, samples: List[TripSample]) -> MonitorReport:
        """Predict each sample's class from the EMA of prior samples."""
        correct = 0
        counted = 0
        ema: Optional[float] = None
        for sample in samples:
            if ema is not None:
                counted += 1
                if trip_count_class(max(ema, 1.0)) is \
                        trip_count_class(max(sample.trips, 1)):
                    correct += 1
            ema = (sample.trips if ema is None
                   else ema + self.alpha * (sample.trips - ema))
        return MonitorReport(samples=counted, correct=correct)


def static_report(samples: List[TripSample],
                  initial_lp: Optional[float]) -> MonitorReport:
    """Accuracy of trusting the initial profile's loop-back probability."""
    if initial_lp is None:
        return MonitorReport(samples=0, correct=0)
    predicted = lp_class(min(max(initial_lp, 0.0), 1.0))
    correct = sum(
        1 for s in samples
        if trip_count_class(max(s.trips, 1)) is predicted)
    return MonitorReport(samples=len(samples), correct=correct)


def compare_tripcount_predictors(trace: ExecutionTrace, latch: int,
                                 initial_lp: Optional[float],
                                 alpha: float = 0.2) -> Dict[str, float]:
    """Static (initial profile) vs continuous trip-count accuracy."""
    samples = extract_trips(trace, latch)
    static = static_report(samples, initial_lp)
    continuous = ContinuousTripCounter(alpha).evaluate(samples)
    return {
        "loop_executions": float(len(samples)),
        "static_accuracy": static.accuracy,
        "continuous_accuracy": continuous.accuracy,
    }
