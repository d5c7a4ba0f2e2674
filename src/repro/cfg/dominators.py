"""Dominator-tree construction (Cooper–Harvey–Kennedy iterative algorithm).

Dominators are the backbone of natural-loop detection in
:mod:`repro.cfg.loops`: an edge ``t -> h`` is a back edge exactly when ``h``
dominates ``t``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .graph import ControlFlowGraph
from .traversal import reverse_post_order


class DominatorTree:
    """Immediate-dominator table for the nodes reachable from the entry.

    ``idom[v]`` is the immediate dominator of ``v``; the entry is its own
    idom.  Unreachable nodes have ``idom[v] is None`` and dominate nothing.
    """

    def __init__(self, cfg: ControlFlowGraph):
        self._cfg = cfg
        self._rpo = reverse_post_order(cfg)
        self._rpo_index: Dict[int, int] = {v: i for i, v in
                                           enumerate(self._rpo)}
        self.idom: List[Optional[int]] = [None] * cfg.num_nodes
        self._compute()

    def _intersect(self, a: int, b: int) -> int:
        """Find the common ancestor of ``a`` and ``b`` on the idom chain."""
        index = self._rpo_index
        idom = self.idom
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    def _compute(self) -> None:
        cfg = self._cfg
        entry = cfg.entry
        self.idom[entry] = entry
        preds = cfg.predecessors()
        reachable = set(self._rpo)

        changed = True
        while changed:
            changed = False
            for v in self._rpo:
                if v == entry:
                    continue
                new_idom: Optional[int] = None
                for p in preds[v]:
                    if p not in reachable or self.idom[p] is None:
                        continue
                    new_idom = p if new_idom is None else \
                        self._intersect(p, new_idom)
                if new_idom is not None and self.idom[v] != new_idom:
                    self.idom[v] = new_idom
                    changed = True

    def dominates(self, a: int, b: int) -> bool:
        """True if ``a`` dominates ``b`` (every path entry->b goes through a).

        A node dominates itself.  Unreachable nodes dominate nothing and are
        dominated by nothing.
        """
        if self.idom[b] is None or self.idom[a] is None:
            return False
        v: Optional[int] = b
        entry = self._cfg.entry
        while v is not None:
            if v == a:
                return True
            if v == entry:
                return False
            v = self.idom[v]
        return False


def compute_dominators(cfg: ControlFlowGraph) -> DominatorTree:
    """Build the dominator tree of ``cfg``."""
    return DominatorTree(cfg)
