"""Static-profile estimation tests."""

import numpy as np
import pytest

from repro.cfg import ControlFlowGraph, find_loops
from repro.profiles import avep_from_trace
from repro.staticpred import compare_static_to_avep, static_profile
from repro.stochastic import ProgramBehavior, steady, walk


def test_static_profile_structure(nested_cfg):
    profile = static_profile(nested_cfg)
    assert set(profile.branch_probabilities) == \
        set(nested_cfg.branch_nodes())
    assert len(profile.frequencies) == nested_cfg.num_nodes
    assert (profile.frequencies >= 0).all()
    # loop blocks estimated hotter than straight-line blocks
    assert profile.frequencies[2] > profile.frequencies[0]


def test_probabilities_clamped(nested_cfg):
    profile = static_profile(nested_cfg)
    for p in profile.branch_probabilities.values():
        assert 0.01 <= p <= 0.99


def test_unconditional_cycle_falls_back_to_flat():
    cfg = ControlFlowGraph([(1,), (0,)])  # 2-cycle, no branches
    profile = static_profile(cfg)
    assert np.allclose(profile.frequencies, 1.0)


def test_static_estimator_tracks_loopy_behaviour(nested_cfg):
    """On loop-dominated stochastic code whose behaviour matches the
    heuristics' assumptions, the static Sd.BP is small."""
    behavior = ProgramBehavior()
    behavior.set(2, steady(0.95))   # loops loop: heuristics are right
    behavior.set(4, steady(0.5))
    behavior.set(7, steady(0.01))
    trace = walk(nested_cfg, behavior, 60_000, seed=4)
    avep = avep_from_trace(trace)
    result = compare_static_to_avep(nested_cfg, avep)
    assert result.sd_bp is not None
    assert result.sd_bp < 0.2


def test_static_estimator_fails_on_biased_diamonds(nested_cfg):
    """Data-dependent diamonds defeat structural heuristics entirely."""
    behavior = ProgramBehavior()
    behavior.set(2, steady(0.95))
    behavior.set(4, steady(0.98))   # heuristics predict ~0.5
    behavior.set(7, steady(0.01))
    trace = walk(nested_cfg, behavior, 60_000, seed=5)
    avep = avep_from_trace(trace)
    result = compare_static_to_avep(nested_cfg, avep)
    # the diamond's weight drags the mismatch up
    assert result.bp_mismatch > 0.0


def test_static_worse_than_initial_profile_on_suite():
    """The study's spectrum: static < INIP(T) in accuracy."""
    from repro.dbt import DBTConfig, ReplayDBT
    from repro.core import compare_inip_to_avep
    from repro.workloads import get_benchmark

    bench = get_benchmark("gzip")
    bench.run_steps = 150_000
    trace = bench.trace("ref")
    avep = avep_from_trace(trace)
    loops = bench.loop_forest()
    static_result = compare_static_to_avep(bench.cfg, avep, loops=loops)
    inip = ReplayDBT(trace, bench.cfg, DBTConfig(threshold=200),
                     loops=loops).snapshot()
    inip_result = compare_inip_to_avep(bench.cfg, inip, avep)
    assert static_result.sd_bp > inip_result.sd_bp
