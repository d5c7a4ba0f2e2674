"""CFG walker tests: determinism, semantics, statistical behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import ControlFlowGraph
from repro.stochastic import (CFGWalker, ProgramBehavior, phased, steady,
                              walk, warmup)

from ..reference import RecordingListener, edge_counts, replay_trace


def test_same_seed_same_trace(nested_cfg, nested_behavior):
    a = walk(nested_cfg, nested_behavior, 5000, seed=3)
    b = walk(nested_cfg, nested_behavior, 5000, seed=3)
    assert np.array_equal(a.blocks, b.blocks)
    assert np.array_equal(a.taken, b.taken)


def test_different_seed_different_trace(nested_cfg, nested_behavior):
    a = walk(nested_cfg, nested_behavior, 5000, seed=1)
    b = walk(nested_cfg, nested_behavior, 5000, seed=2)
    assert not (np.array_equal(a.blocks, b.blocks) and
                np.array_equal(a.taken, b.taken))


def test_max_steps_bounds_run(nested_cfg, nested_behavior):
    trace = walk(nested_cfg, nested_behavior, 777, seed=0)
    assert trace.num_steps == 777


def test_walk_stops_at_exit():
    cfg = ControlFlowGraph([(1,), ()])
    trace = walk(cfg, ProgramBehavior(), 100, seed=0)
    assert list(trace.blocks) == [0, 1]


def test_branch_taken_goes_to_first_successor():
    cfg = ControlFlowGraph([(1, 2), (), ()])
    behavior = ProgramBehavior()
    behavior.set(0, steady(1.0))
    trace = walk(cfg, behavior, 100, seed=0)
    assert list(trace.blocks) == [0, 1]
    assert trace.taken[0] == 1

    behavior.set(0, steady(0.0))
    trace = walk(cfg, behavior, 100, seed=0)
    assert list(trace.blocks) == [0, 2]
    assert trace.taken[0] == 0


def test_steady_probability_is_respected():
    # Branch whose both targets stay in the cycle, so the walk never
    # exits and the empirical taken rate is well sampled.
    cfg = ControlFlowGraph([(0, 0)])
    behavior = ProgramBehavior()
    behavior.set(0, steady(0.75))
    trace = walk(cfg, behavior, 50_000, seed=5)
    rate = trace.taken_counts()[0] / trace.use_counts()[0]
    assert rate == pytest.approx(0.75, abs=0.01)


def test_phases_respected():
    cfg = ControlFlowGraph([(0, 0)])
    behavior = ProgramBehavior()
    behavior.set(0, phased([(0.5, 0.9), (0.5, 0.3)], total_steps=20_000))
    trace = walk(cfg, behavior, 20_000, seed=11)
    first = trace.taken[:10_000]
    second = trace.taken[10_000:]
    assert first.mean() == pytest.approx(0.9, abs=0.02)
    assert second.mean() == pytest.approx(0.3, abs=0.02)


def test_warmup_respected():
    cfg = ControlFlowGraph([(0, 1), ()])
    behavior = ProgramBehavior()
    behavior.set(0, warmup(uses=100, p_init=1.0, p_steady=0.99))
    trace = walk(cfg, behavior, 5000, seed=2)
    assert trace.taken[:100].min() == 1  # warm-up never exits


def test_flow_conservation(nested_trace, nested_cfg):
    """Each block's use equals its dynamic inflow (+1 for the start)."""
    edges = edge_counts(nested_trace)
    use = nested_trace.use_counts()
    inflow = np.zeros(nested_cfg.num_nodes, dtype=np.int64)
    for (src, dst), count in edges.items():
        inflow[dst] += count
    inflow[nested_trace.blocks[0]] += 1
    last = nested_trace.blocks[-1]
    # every executed block: use == inflow
    assert np.array_equal(inflow, use)


def test_trace_edges_follow_cfg(nested_trace, nested_cfg):
    for (src, dst), _count in edge_counts(nested_trace).items():
        assert dst in nested_cfg.successors(src)


def test_replay_trace_reproduces_stream(nested_trace):
    listener = RecordingListener()
    replay_trace(nested_trace, listener)
    assert listener.blocks == list(nested_trace.blocks)
    expected = [(int(b), bool(t))
                for b, t in zip(nested_trace.blocks, nested_trace.taken)
                if t != -1]
    assert listener.branches == expected


def test_custom_start_node(nested_cfg, nested_behavior):
    walker = CFGWalker(nested_cfg, nested_behavior, seed=0)
    trace = walker.run(100, start=4)
    assert trace.blocks[0] == 4


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.floats(0.05, 0.95))
def test_branch_counts_consistent_property(seed, p):
    """taken <= use for every block, and branch outcomes only on branches."""
    cfg = ControlFlowGraph([(1,), (1, 2), ()])
    behavior = ProgramBehavior()
    behavior.set(1, steady(p))
    trace = walk(cfg, behavior, 2000, seed=seed)
    use = trace.use_counts()
    taken = trace.taken_counts()
    assert (taken <= use).all()
    assert taken[0] == 0 and taken[2] == 0
