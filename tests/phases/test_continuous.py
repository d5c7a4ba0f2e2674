"""Selective re-profiling (adaptive) tests."""

import math

import pytest

from repro.cfg import ControlFlowGraph
from repro.dbt import DBTConfig, ReplayDBT
from repro.phases import SelectiveReprofiler, compare_static_vs_adaptive
from repro.phases.continuous import AdaptiveEstimate
from repro.stochastic import ProgramBehavior, phased, steady, walk


def _phased_setup(steps=120_000, seed=5):
    cfg = ControlFlowGraph([
        (1,), (2,), (3, 4), (2,), (5, 6), (7,), (7,), (8, 1), ()])
    behavior = ProgramBehavior()
    behavior.set(2, steady(0.96))
    behavior.set(4, phased([(0.25, 0.9), (0.75, 0.1)], total_steps=steps))
    behavior.set(7, steady(0.0001))
    trace = walk(cfg, behavior, steps, seed=seed)
    inip = ReplayDBT(trace, cfg,
                     DBTConfig(threshold=50,
                               pool_trigger_size=3)).snapshot()
    return cfg, trace, inip


def test_estimate_timeline():
    est = AdaptiveEstimate(block_id=1,
                           segments=[(0, 0.9), (100, 0.2), (500, 0.6)])
    assert est.estimate_at(0) == 0.9
    assert est.estimate_at(99) == 0.9
    assert est.estimate_at(100) == 0.2
    assert est.estimate_at(10_000) == 0.6
    assert est.segments[-1][1] == 0.6
    assert AdaptiveEstimate(block_id=2).estimate_at(5) is None


def test_adaptive_tracks_phase_change():
    cfg, trace, inip = _phased_setup()
    reprofiler = SelectiveReprofiler(threshold=50, deviation=0.2,
                                     window_steps=10_000)
    outcome = reprofiler.run(trace, inip)
    assert outcome.total_reprofiles >= 1
    assert outcome.extra_profiling_ops > 0
    # block 4's estimate must end near the late-phase probability
    est = outcome.estimates[4]
    assert est.segments[-1][1] == pytest.approx(0.1, abs=0.1)


def test_adaptive_beats_static_on_phased_program():
    cfg, trace, inip = _phased_setup()
    result = compare_static_vs_adaptive(
        trace, inip, SelectiveReprofiler(threshold=50, deviation=0.2,
                                         window_steps=10_000),
        window_steps=10_000)
    assert not math.isnan(result["static_error"])
    assert result["adaptive_error"] < result["static_error"]
    assert result["reprofiles"] >= 1


def test_reprofile_cap_respected():
    cfg, trace, inip = _phased_setup()
    reprofiler = SelectiveReprofiler(threshold=10, deviation=0.01,
                                     window_steps=5_000, max_reprofiles=2)
    outcome = reprofiler.run(trace, inip)
    for est in outcome.estimates.values():
        assert est.reprofiles <= 2


def test_steady_program_needs_no_reprofiling():
    cfg = ControlFlowGraph([
        (1,), (2,), (3, 4), (2,), (5, 6), (7,), (7,), (8, 1), ()])
    behavior = ProgramBehavior()
    behavior.set(2, steady(0.9))
    behavior.set(4, steady(0.7))
    behavior.set(7, steady(0.0001))
    trace = walk(cfg, behavior, 80_000, seed=9)
    inip = ReplayDBT(trace, cfg,
                     DBTConfig(threshold=100,
                               pool_trigger_size=3)).snapshot()
    reprofiler = SelectiveReprofiler(threshold=100, deviation=0.25,
                                     window_steps=10_000)
    outcome = reprofiler.run(trace, inip)
    assert outcome.total_reprofiles == 0
    assert outcome.extra_profiling_ops == 0
