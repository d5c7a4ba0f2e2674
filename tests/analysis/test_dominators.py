"""Generic dominators and the virtual-exit post-dominator tree."""

from repro.analysis import (GenericDominators, PostDominatorTree,
                            compute_post_dominators)
from repro.cfg import ControlFlowGraph


def _post_dominates(pdt, a, b):
    """True if ``a`` is on ``b``'s immediate post-dominator chain."""
    v = b
    while v is not None:
        if v == a:
            return True
        if v == pdt.virtual_exit:
            return False
        v = pdt.ipdom(v)
    return False


class TestGenericDominators:
    def test_diamond_idoms(self):
        # 0 -> 1,2 -> 3: the split dominates the join, the arms do not
        dom = GenericDominators([[1, 2], [3], [3], []], entry=0)
        assert dom.idom[0] == 0
        assert dom.idom[1] == 0
        assert dom.idom[2] == 0
        assert dom.idom[3] == 0
        assert dom.dominates(0, 3)
        assert not dom.dominates(1, 3)
        assert not dom.dominates(2, 3)

    def test_chain_dominance_is_transitive(self):
        dom = GenericDominators([[1], [2], [3], []], entry=0)
        assert dom.dominates(0, 3)
        assert dom.dominates(1, 3)
        assert dom.dominates(2, 3)
        assert not dom.dominates(3, 2)

    def test_node_dominates_itself(self):
        dom = GenericDominators([[1], []], entry=0)
        assert dom.dominates(1, 1)

    def test_unreachable_nodes_have_no_idom(self):
        dom = GenericDominators([[1], [], [1]], entry=0)  # 2 unreachable
        assert dom.idom[2] is None
        assert not dom.dominates(2, 1)
        assert not dom.dominates(0, 2)

    def test_multi_predecessor_join(self):
        # arbitrary in-degree (the reason this exists alongside the
        # two-successor ControlFlowGraph dominators)
        succs = [[1, 2], [3], [3], [4], []]
        succs[0] = [1, 2, 3]  # three successors — illegal in a VIR CFG
        dom = GenericDominators(succs, entry=0)
        assert dom.dominates(0, 4)
        assert not dom.dominates(3, 4) or dom.idom[4] == 3


class TestPostDominatorTree:
    def test_diamond_join_post_dominates_arms(self, diamond_cfg):
        pdt = PostDominatorTree(diamond_cfg)
        # join (3) and exit (4) post-dominate the split and both arms
        assert _post_dominates(pdt, 4, 1)
        assert _post_dominates(pdt, 4, 2)
        assert _post_dominates(pdt, 4, 3)
        assert not _post_dominates(pdt, 2, 1)

    def test_virtual_exit_id(self, diamond_cfg):
        pdt = compute_post_dominators(diamond_cfg)
        assert pdt.virtual_exit == diamond_cfg.num_nodes
        # the real exit's immediate post-dominator is the virtual exit
        assert pdt.ipdom(4) == pdt.virtual_exit

    def test_multi_exit_graph_still_has_single_root(self):
        # 0 -> 1 (exit), 0 -> 2 (exit): no real node post-dominates 0
        cfg = ControlFlowGraph([(1, 2), (), ()])
        pdt = PostDominatorTree(cfg)
        assert pdt.ipdom(0) == pdt.virtual_exit
        assert _post_dominates(pdt, 1, 1)
        assert not _post_dominates(pdt, 1, 0)

    def test_infinite_loop_does_not_reach_exit(self):
        # 0 -> 1 <-> 2 with no way out
        cfg = ControlFlowGraph([(1,), (2,), (1,)])
        pdt = PostDominatorTree(cfg)
        assert pdt.ipdom(1) is None

    def test_reaches_exit_on_normal_graph(self, nested_cfg):
        pdt = PostDominatorTree(nested_cfg)
        assert all(pdt.ipdom(v) is not None
                   for v in range(nested_cfg.num_nodes))
        # the loop exit check (7) post-dominates the whole diamond
        assert _post_dominates(pdt, 7, 4)
        assert _post_dominates(pdt, 7, 5)
        assert _post_dominates(pdt, 7, 6)
