"""Post-dominators, re-exported forward dominators, and control deps.

:mod:`repro.cfg.dominators` already provides forward dominators via the
Cooper–Harvey–Kennedy iterative algorithm, but it is tied to
:class:`~repro.cfg.graph.ControlFlowGraph`, which enforces VIR's
two-successor limit — a reversed CFG can have arbitrarily many
"successors" (all predecessors of a join point), so post-dominators need
a generic solver.  :class:`GenericDominators` runs CHK on any adjacency
list; :class:`PostDominatorTree` applies it to the reversed CFG rooted
at a **virtual exit** node (id ``cfg.num_nodes``) wired from every real
exit, so multi-exit functions still get a single post-dominator root.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..cfg.dominators import DominatorTree, compute_dominators
from ..cfg.graph import ControlFlowGraph

__all__ = [
    "DominatorTree", "compute_dominators",
    "GenericDominators", "PostDominatorTree", "compute_post_dominators",
]


def _reverse_post_order(succs: Sequence[Sequence[int]],
                        entry: int) -> List[int]:
    """Iterative RPO over an arbitrary adjacency list."""
    seen = [False] * len(succs)
    order: List[int] = []
    # (node, next-successor-index) stack for an iterative post-order walk.
    stack: List[Tuple[int, int]] = [(entry, 0)]
    seen[entry] = True
    while stack:
        node, index = stack[-1]
        targets = succs[node]
        if index < len(targets):
            stack[-1] = (node, index + 1)
            nxt = targets[index]
            if not seen[nxt]:
                seen[nxt] = True
                stack.append((nxt, 0))
        else:
            stack.pop()
            order.append(node)
    order.reverse()
    return order


class GenericDominators:
    """CHK immediate dominators over an arbitrary rooted adjacency list.

    ``idom[v]`` is the immediate dominator of ``v`` (the root is its own
    idom); nodes unreachable from the root keep ``None``.
    """

    def __init__(self, succs: Sequence[Sequence[int]], entry: int):
        self.entry = entry
        self._rpo = _reverse_post_order(succs, entry)
        index = {v: i for i, v in enumerate(self._rpo)}
        self.idom: List[Optional[int]] = [None] * len(succs)
        self.idom[entry] = entry

        preds: Dict[int, List[int]] = {}
        for v, targets in enumerate(succs):
            for s in targets:
                preds.setdefault(s, []).append(v)

        changed = True
        while changed:
            changed = False
            for v in self._rpo:
                if v == entry:
                    continue
                new_idom: Optional[int] = None
                for p in preds.get(v, ()):
                    if p not in index or self.idom[p] is None:
                        continue
                    if new_idom is None:
                        new_idom = p
                    else:
                        a, b = p, new_idom
                        while a != b:
                            while index[a] > index[b]:
                                a = self.idom[a]  # type: ignore[assignment]
                            while index[b] > index[a]:
                                b = self.idom[b]  # type: ignore[assignment]
                        new_idom = a
                if new_idom is not None and self.idom[v] != new_idom:
                    self.idom[v] = new_idom
                    changed = True

    def dominates(self, a: int, b: int) -> bool:
        """True if ``a`` dominates ``b`` in this generic graph."""
        if self.idom[a] is None or self.idom[b] is None:
            return False
        v: Optional[int] = b
        while v is not None:
            if v == a:
                return True
            if v == self.entry:
                return False
            v = self.idom[v]
        return False


class PostDominatorTree:
    """Post-dominators of a CFG through a virtual exit node.

    The virtual exit has id ``cfg.num_nodes``; every node with no
    successors gets an edge to it, so the reversed graph has a single
    root even for multi-exit (or no-exit) functions.  Nodes that cannot
    reach any exit (e.g. the body of an infinite loop with no break)
    post-dominate nothing and have ``ipdom(v) is None``.
    """

    def __init__(self, cfg: ControlFlowGraph):
        self._cfg = cfg
        n = cfg.num_nodes
        self.virtual_exit = n
        # Reversed graph: an edge v->s becomes s->v; real exits hang off
        # the virtual exit so it is the single root.
        reversed_succs: List[List[int]] = [[] for _ in range(n + 1)]
        for v, s in cfg.edges():
            reversed_succs[s].append(v)
        for v in range(n):
            if not cfg.successors(v):
                reversed_succs[self.virtual_exit].append(v)
        self._dom = GenericDominators(reversed_succs, self.virtual_exit)

    def ipdom(self, v: int) -> Optional[int]:
        """Immediate post-dominator of ``v``.

        ``None`` when ``v`` cannot reach an exit; the virtual exit id
        (``cfg.num_nodes``) when the nearest post-dominator is the exit
        itself (i.e. no real node post-dominates ``v``).
        """
        idom = self._dom.idom[v]
        return idom


def compute_post_dominators(cfg: ControlFlowGraph) -> PostDominatorTree:
    """Build the post-dominator tree of ``cfg``."""
    return PostDominatorTree(cfg)
