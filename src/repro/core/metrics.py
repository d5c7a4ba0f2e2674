"""The paper's accuracy metrics: frequency-weighted standard deviations.

All three metrics (Sd.BP, Sd.CP, Sd.LP) share one formula — the square
root of the weighted mean squared difference between predicted and average
probabilities::

    Sd = sqrt( sum_i (pred_i - avg_i)^2 * W_i / sum_i W_i )

with AVEP-derived weights.  An Sd around 0.1 means roughly 68% of the
predictions lie within 0.1 of the average behaviour (the paper's §2.1
statistical reading).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass(frozen=True)
class WeightedPair:
    """One comparison unit: prediction vs average, with its weight."""

    predicted: float
    average: float
    weight: float


def weighted_sd(pairs: Iterable[WeightedPair]) -> Optional[float]:
    """The paper's weighted standard deviation over comparison pairs.

    Returns None when the total weight is zero (no comparable units —
    e.g. Sd.LP for a benchmark that formed no loop regions), so callers
    can distinguish "perfectly predicted" from "nothing to compare".
    """
    num = 0.0
    den = 0.0
    for pair in pairs:
        if pair.weight < 0:
            raise ValueError("negative weight")
        diff = pair.predicted - pair.average
        num += diff * diff * pair.weight
        den += pair.weight
    if den <= 0.0:
        return None
    return math.sqrt(num / den)

