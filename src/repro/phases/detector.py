"""Phase-change detection on profile streams (paper §5).

The paper observes that several benchmarks (Mcf most prominently) change
behaviour mid-run, making any single initial profile unrepresentative, and
proposes phase awareness as future work.  This module implements the
detection half: windowed branch-probability estimates over a trace and a
simple change detector that flags branches whose probability moves by more
than a threshold between adjacent windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..stochastic.trace import ExecutionTrace


@dataclass(frozen=True)
class WindowedRates:
    """Per-window use/taken counts of one block.

    Attributes:
        block_id: the block.
        window_steps: window length in global steps.
        use: executions per window.
        taken: taken outcomes per window.
    """

    block_id: int
    window_steps: int
    use: np.ndarray
    taken: np.ndarray

    def probabilities(self, min_uses: int = 1) -> np.ndarray:
        """Per-window taken probability (NaN where use < ``min_uses``)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            p = self.taken / self.use
        p = np.where(self.use >= max(min_uses, 1), p, np.nan)
        return p


@dataclass(frozen=True)
class PhaseChange:
    """One detected behaviour shift of a branch."""

    block_id: int
    step: int            # global step at which the new window starts
    old_probability: float
    new_probability: float


def windowed_rates(trace: ExecutionTrace, block_id: int,
                   window_steps: int) -> WindowedRates:
    """Bin one block's use/taken events into fixed global-step windows."""
    if window_steps < 1:
        raise ValueError("window_steps must be positive")
    events = trace.events().get(block_id)
    num_windows = max((trace.num_steps + window_steps - 1) // window_steps,
                      1)
    use = np.zeros(num_windows, dtype=np.int64)
    taken = np.zeros(num_windows, dtype=np.int64)
    if events is not None:
        windows = events.steps() // window_steps
        np.add.at(use, windows, 1)
        outcomes = np.diff(events.taken_prefix())
        np.add.at(taken, windows, outcomes)
    return WindowedRates(block_id=block_id, window_steps=window_steps,
                         use=use, taken=taken)


class PhaseDetector:
    """Flags branches whose windowed probability shifts beyond a delta.

    Args:
        window_steps: window length (global steps).
        delta: minimum probability shift between adjacent informative
            windows to report a change.
        min_uses: windows with fewer uses are skipped (too noisy).
    """

    def __init__(self, window_steps: int = 50_000, delta: float = 0.2,
                 min_uses: int = 30):
        if not 0.0 < delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        self.window_steps = window_steps
        self.delta = delta
        self.min_uses = min_uses

    def detect_block(self, trace: ExecutionTrace,
                     block_id: int) -> List[PhaseChange]:
        """Phase changes of one branch, in step order."""
        rates = windowed_rates(trace, block_id, self.window_steps)
        probs = rates.probabilities(self.min_uses)
        changes: List[PhaseChange] = []
        last_informative: Optional[float] = None
        for window, p in enumerate(probs):
            if np.isnan(p):
                continue
            if last_informative is not None and \
                    abs(p - last_informative) >= self.delta:
                changes.append(PhaseChange(
                    block_id=block_id,
                    step=window * self.window_steps,
                    old_probability=float(last_informative),
                    new_probability=float(p)))
            last_informative = float(p)
        return changes

    def detect(self, trace: ExecutionTrace,
               block_ids: Optional[List[int]] = None
               ) -> Dict[int, List[PhaseChange]]:
        """Phase changes for every (or the given) branch blocks."""
        if block_ids is None:
            block_ids = [int(b) for b in trace.branch_blocks()]
        out: Dict[int, List[PhaseChange]] = {}
        for block_id in block_ids:
            changes = self.detect_block(trace, block_id)
            if changes:
                out[block_id] = changes
        return out
