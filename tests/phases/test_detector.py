"""Phase-detector tests."""

import pytest

from repro.cfg import ControlFlowGraph
from repro.phases import PhaseDetector, windowed_rates
from repro.stochastic import ProgramBehavior, phased, steady, walk


def _cycle_cfg():
    # endless 2-block cycle with one branch (both targets in cycle)
    return ControlFlowGraph([(1,), (0, 0)])


def _trace(behavior, steps=40_000, seed=3):
    return walk(_cycle_cfg(), behavior, steps, seed=seed)


def test_windowed_rates_bins_events():
    behavior = ProgramBehavior()
    behavior.set(1, steady(0.8))
    trace = _trace(behavior, steps=10_000)
    rates = windowed_rates(trace, 1, window_steps=1000)
    assert rates.use.sum() == trace.use_counts()[1]
    assert rates.taken.sum() == trace.taken_counts()[1]
    probs = rates.probabilities(min_uses=10)
    import numpy as np
    assert np.nanmean(probs) == pytest.approx(0.8, abs=0.05)


def test_windowed_rates_bad_window():
    behavior = ProgramBehavior()
    behavior.set(1, steady(0.5))
    trace = _trace(behavior, steps=100)
    with pytest.raises(ValueError):
        windowed_rates(trace, 1, window_steps=0)


def test_detects_planted_phase_change():
    behavior = ProgramBehavior()
    behavior.set(1, phased([(0.5, 0.9), (0.5, 0.2)], total_steps=40_000))
    trace = _trace(behavior)
    detector = PhaseDetector(window_steps=4000, delta=0.3)
    changes = detector.detect_block(trace, 1)
    assert len(changes) == 1
    change = changes[0]
    assert change.old_probability > 0.8
    assert change.new_probability < 0.4
    assert abs(change.step - 20_000) <= 4000
    assert change.old_probability - change.new_probability > 0.5


def test_no_false_positives_on_steady_branch():
    behavior = ProgramBehavior()
    behavior.set(1, steady(0.7))
    trace = _trace(behavior)
    detector = PhaseDetector(window_steps=4000, delta=0.2)
    assert detector.detect_block(trace, 1) == []


def test_detect_scans_all_branches():
    behavior = ProgramBehavior()
    behavior.set(1, phased([(0.5, 0.95), (0.5, 0.1)], total_steps=40_000))
    trace = _trace(behavior)
    detector = PhaseDetector(window_steps=4000, delta=0.3)
    changes = detector.detect(trace)
    assert set(changes) == {1}


def test_sparse_windows_skipped():
    behavior = ProgramBehavior()
    behavior.set(1, steady(0.5))
    trace = _trace(behavior, steps=200)
    detector = PhaseDetector(window_steps=10, delta=0.2, min_uses=1000)
    assert detector.detect_block(trace, 1) == []


def test_invalid_delta():
    with pytest.raises(ValueError):
        PhaseDetector(delta=0.0)
