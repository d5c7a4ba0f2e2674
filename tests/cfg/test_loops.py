"""Natural-loop detection tests."""

import pytest

from repro.cfg import ControlFlowGraph, back_edges, find_loops


def _loop(forest, header):
    """The loop headed by ``header``."""
    (loop,) = [loop for loop in forest.loops if loop.header == header]
    return loop


def test_nested_loops_found(nested_cfg):
    forest = find_loops(nested_cfg)
    headers = forest.headers
    assert headers == {1, 2}
    inner = _loop(forest, 2)
    outer = _loop(forest, 1)
    assert inner.body == frozenset({2, 3})
    assert outer.body == frozenset({1, 2, 3, 4, 5, 6, 7})
    assert inner.body < outer.body


def test_nesting_links(nested_cfg):
    forest = find_loops(nested_cfg)
    inner = _loop(forest, 2)
    outer = _loop(forest, 1)
    assert inner.parent is not None
    assert forest.loops[inner.parent] is outer
    assert forest.loops.index(inner) in outer.children  # type: ignore


def test_innermost_containing(nested_cfg):
    forest = find_loops(nested_cfg)
    assert forest.innermost_containing(3).header == 2
    assert forest.innermost_containing(5).header == 1
    assert forest.innermost_containing(8) is None


def test_back_edges(nested_cfg):
    assert set(back_edges(nested_cfg)) == {(3, 2), (7, 1)}


def test_loop_exits(nested_cfg):
    forest = find_loops(nested_cfg)
    inner = _loop(forest, 2)
    assert inner.exits(nested_cfg) == [(2, 4)]
    outer = _loop(forest, 1)
    assert outer.exits(nested_cfg) == [(7, 8)]


def test_latches(nested_cfg):
    forest = find_loops(nested_cfg)
    assert _loop(forest, 2).back_edges == ((3, 2),)


def test_self_loop():
    cfg = ControlFlowGraph([(1,), (1, 2), ()])
    forest = find_loops(cfg)
    assert len(forest) == 1
    loop = forest.loops[0]
    assert loop.header == 1
    assert loop.body == frozenset({1})
    assert loop.back_edges == ((1, 1),)


def test_shared_header_loops_merge():
    # Two back edges into the same header: 1 -> {2,3}, both latch to 1.
    cfg = ControlFlowGraph([
        (1,),
        (2, 3),
        (1,),
        (1,),
    ])
    forest = find_loops(cfg)
    assert len(forest) == 1
    loop = forest.loops[0]
    assert loop.body == frozenset({1, 2, 3})
    assert {tail for tail, _ in loop.back_edges} == {2, 3}


def test_no_loops_in_dag(diamond_cfg):
    assert len(find_loops(diamond_cfg)) == 0


def test_irreducible_edge_is_not_back_edge():
    # 0->1, 0->2, 1->2, 2->1 : the 2->1 edge targets a non-dominator.
    cfg = ControlFlowGraph([(1, 2), (2,), (1,)])
    assert back_edges(cfg) == []
    assert len(find_loops(cfg)) == 0


# -- randomised structural properties ----------------------------------------

import random as _random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import compute_dominators


@st.composite
def _random_cfgs(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    rng = _random.Random(draw(st.integers(0, 2**32 - 1)))
    succs = []
    for _ in range(n):
        k = rng.choice([0, 1, 1, 2])
        succs.append(tuple(rng.randrange(n) for _ in range(k)))
    return ControlFlowGraph(succs)


@settings(max_examples=60, deadline=None)
@given(_random_cfgs())
def test_back_edge_targets_dominate_sources(cfg):
    dom = compute_dominators(cfg)
    for tail, header in back_edges(cfg):
        assert dom.dominates(header, tail)


@settings(max_examples=60, deadline=None)
@given(_random_cfgs())
def test_loop_bodies_are_closed(cfg):
    """Every predecessor of a non-header body node is in the body: if p
    has an edge to a body node other than the header, p reaches a latch
    without passing through the header, so p belongs to the natural
    loop by definition."""
    preds = cfg.predecessors()
    for loop in find_loops(cfg):
        for node in loop.body:
            if node == loop.header:
                continue
            for p in preds[node]:
                assert p in loop.body


@settings(max_examples=60, deadline=None)
@given(_random_cfgs())
def test_headers_dominate_their_bodies(cfg):
    dom = compute_dominators(cfg)
    from repro.cfg import reachable
    live = reachable(cfg)
    for loop in find_loops(cfg):
        for node in loop.body:
            if node in live:
                assert dom.dominates(loop.header, node)


@settings(max_examples=60, deadline=None)
@given(_random_cfgs())
def test_nesting_is_containment(cfg):
    forest = find_loops(cfg)
    for loop in forest:
        if loop.parent is not None:
            outer = forest.loops[loop.parent]
            assert loop.body < outer.body
