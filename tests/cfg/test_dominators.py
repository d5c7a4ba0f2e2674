"""Dominator-tree tests: known graphs plus a brute-force cross-check."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import ControlFlowGraph, compute_dominators, reachable


def brute_force_dominators(cfg):
    """Dominator sets by definition: remove v, see what becomes unreachable."""
    nodes = reachable(cfg)
    doms = {v: set() for v in range(cfg.num_nodes)}
    for v in nodes:
        # a dominates v iff removing a makes v unreachable (plus a==v).
        for a in nodes:
            if a == v:
                doms[v].add(a)
                continue
            seen = {cfg.entry}
            stack = [cfg.entry]
            if cfg.entry == a:
                pass
            else:
                while stack:
                    u = stack.pop()
                    for s in cfg.successors(u):
                        if s != a and s not in seen:
                            seen.add(s)
                            stack.append(s)
            if v not in seen:
                doms[v].add(a)
    return doms


def test_diamond(diamond_cfg):
    dom = compute_dominators(diamond_cfg)
    assert dom.idom[0] == 0
    assert dom.idom[1] == 0
    assert dom.idom[2] == 1
    assert dom.idom[3] == 1
    assert dom.idom[4] == 1  # join dominated by split, not by arms
    assert dom.dominates(1, 4)
    assert not dom.dominates(2, 4)


def test_nested_loops(nested_cfg):
    dom = compute_dominators(nested_cfg)
    assert dom.dominates(1, 7)
    assert dom.dominates(2, 3)
    assert dom.dominates(2, 4)
    # back edges: 3->2 and 7->1
    assert dom.dominates(2, 3)
    assert dom.dominates(1, 7)


def test_unreachable_nodes_dominate_nothing():
    cfg = ControlFlowGraph([(1,), (), ()])
    dom = compute_dominators(cfg)
    assert dom.idom[2] is None
    assert not dom.dominates(2, 1)
    assert not dom.dominates(1, 2)


def dominator_sets(cfg, dom):
    """Every node's dominator set, read off ``dom.dominates``."""
    return [{a for a in range(cfg.num_nodes) if dom.dominates(a, v)}
            for v in range(cfg.num_nodes)]


def test_dominator_sets_match_brute_force(nested_cfg):
    dom = compute_dominators(nested_cfg)
    expected = brute_force_dominators(nested_cfg)
    assert dominator_sets(nested_cfg, dom) == \
        [expected[v] for v in range(nested_cfg.num_nodes)]


@st.composite
def random_cfgs(draw):
    """Random rooted CFGs with <=2 successors per node."""
    n = draw(st.integers(min_value=2, max_value=12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    succs = []
    for v in range(n):
        k = rng.choice([0, 1, 1, 2])
        succs.append(tuple(rng.randrange(n) for _ in range(k)))
    # Make most nodes reachable: chain fallback for isolated prefixes.
    succs[0] = (1 % n,) if not succs[0] else succs[0]
    return ControlFlowGraph(succs)


@settings(max_examples=60, deadline=None)
@given(random_cfgs())
def test_dominators_match_brute_force_randomised(cfg):
    dom = compute_dominators(cfg)
    expected = brute_force_dominators(cfg)
    got = dominator_sets(cfg, dom)
    for v in range(cfg.num_nodes):
        assert got[v] == expected[v], f"node {v}"


@settings(max_examples=40, deadline=None)
@given(random_cfgs())
def test_idom_strictly_dominates(cfg):
    dom = compute_dominators(cfg)
    for v in reachable(cfg):
        if v == cfg.entry:
            assert dom.idom[v] == v
        else:
            idom = dom.idom[v]
            if idom is not None:
                assert dom.dominates(idom, v)
                assert idom != v
