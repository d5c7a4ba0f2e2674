"""Classical profile-comparison metrics (paper §2's cited alternatives).

The paper notes that the well-known techniques relying on the *relative
order* of profile weights — Wall's "weight matching" and "key matching"
(PLDI'91) and Feller's overlap percentage — "cannot easily be applied for
comparing INIP(T) and AVEP" because every INIP(T) count is squashed into
``[T, 2T)``.  They remain perfectly applicable to *flat* whole-run
profiles, so this module implements all three:

* **weight matching**: order blocks by predicted weight, take the top-N,
  and score them by the *actual* weight they cover relative to the best
  possible top-N — how much of the real hot set a PGO compiler keying on
  the prediction would optimise;
* **key matching**: the fraction of the actual top-N block *identities*
  the predicted top-N recovers;
* **overlap percentage**: sum over blocks of min(predicted share, actual
  share) — total probability mass the two normalised profiles agree on.

They are used by the tests (and available to users) to cross-check the
Sd.BP story on the training-input comparisons, and to demonstrate the
paper's §2 objection concretely: applied to INIP(T), weight matching
degenerates because INIP's ordering is meaningless.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..profiles.model import ProfileSnapshot


def _weights(snapshot: ProfileSnapshot) -> Dict[int, float]:
    return {block: float(p.use) for block, p in snapshot.blocks.items()
            if p.use > 0}


def _top_n(weights: Dict[int, float], n: int) -> List[int]:
    # deterministic: weight descending, block id ascending
    return [b for b, _ in sorted(weights.items(),
                                 key=lambda kv: (-kv[1], kv[0]))[:n]]


def weight_matching(predicted: ProfileSnapshot, actual: ProfileSnapshot,
                    top_n: int = 20) -> Optional[float]:
    """Wall's weight matching score in ``[0, 1]`` (1 = perfect).

    The actual weight covered by the predicted top-N, divided by the
    actual weight of the true top-N (the best any selection of N blocks
    can cover).
    """
    predicted_weights = _weights(predicted)
    actual_weights = _weights(actual)
    if not predicted_weights or not actual_weights:
        return None
    chosen = _top_n(predicted_weights, top_n)
    best = _top_n(actual_weights, top_n)
    best_cover = sum(actual_weights[b] for b in best)
    if best_cover <= 0:
        return None
    cover = sum(actual_weights.get(b, 0.0) for b in chosen)
    return cover / best_cover


def key_matching(predicted: ProfileSnapshot, actual: ProfileSnapshot,
                 top_n: int = 20) -> Optional[float]:
    """Wall's key matching: |predicted top-N ∩ actual top-N| / N'."""
    predicted_weights = _weights(predicted)
    actual_weights = _weights(actual)
    if not predicted_weights or not actual_weights:
        return None
    best = _top_n(actual_weights, top_n)
    if not best:
        return None
    chosen = set(_top_n(predicted_weights, top_n))
    return sum(1 for b in best if b in chosen) / len(best)


def overlap_percentage(predicted: ProfileSnapshot,
                       actual: ProfileSnapshot) -> Optional[float]:
    """Feller's overlap: Σ_b min(pred share of b, actual share of b)."""
    predicted_weights = _weights(predicted)
    actual_weights = _weights(actual)
    total_predicted = sum(predicted_weights.values())
    total_actual = sum(actual_weights.values())
    if total_predicted <= 0 or total_actual <= 0:
        return None
    overlap = 0.0
    for block, weight in actual_weights.items():
        predicted_share = predicted_weights.get(block, 0.0) / \
            total_predicted
        overlap += min(predicted_share, weight / total_actual)
    return overlap


def order_based_report(predicted: ProfileSnapshot,
                       actual: ProfileSnapshot,
                       top_n: int = 20) -> Dict[str, Optional[float]]:
    """All three order/mass-based scores in one call."""
    return {
        "weight_matching": weight_matching(predicted, actual, top_n),
        "key_matching": key_matching(predicted, actual, top_n),
        "overlap_percentage": overlap_percentage(predicted, actual),
    }
