"""Natural-loop detection and loop nesting.

A back edge ``t -> h`` (where ``h`` dominates ``t``) defines a *natural
loop*: ``h`` plus every node that can reach ``t`` without passing through
``h``.  Loops sharing a header are merged, and nesting is recovered by body
containment — exactly the structures the DBT's region former and the paper's
loop-back-probability analysis need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .dominators import DominatorTree, compute_dominators
from .graph import ControlFlowGraph


@dataclass
class NaturalLoop:
    """One natural loop.

    Attributes:
        header: the loop entry node (dominates every body node).
        body: all nodes in the loop, header included.
        back_edges: the latch edges ``(tail, header)`` that close the loop.
        parent: index of the innermost enclosing loop in the forest, if any.
        children: indices of directly nested loops.
    """

    header: int
    body: FrozenSet[int]
    back_edges: Tuple[Tuple[int, int], ...]
    parent: Optional[int] = None
    children: List[int] = field(default_factory=list)

    def contains(self, node: int) -> bool:
        """True if ``node`` is in the loop body."""
        return node in self.body

    def exits(self, cfg: ControlFlowGraph) -> List[Tuple[int, int]]:
        """Edges leaving the loop: (body node, outside successor)."""
        out = []
        for v in sorted(self.body):
            for s in cfg.successors(v):
                if s not in self.body:
                    out.append((v, s))
        return out


def _natural_loop_body(cfg: ControlFlowGraph, header: int,
                       tails: List[int]) -> Set[int]:
    """Nodes reaching any tail without passing through the header."""
    preds = cfg.predecessors()
    body: Set[int] = {header}
    stack = [t for t in tails if t != header]
    body.update(stack)
    while stack:
        v = stack.pop()
        for p in preds[v]:
            if p not in body:
                body.add(p)
                stack.append(p)
    return body


class LoopForest:
    """All natural loops of a CFG plus their nesting relation."""

    def __init__(self, cfg: ControlFlowGraph,
                 dom: Optional[DominatorTree] = None):
        self._cfg = cfg
        dom = dom or compute_dominators(cfg)
        # Group back edges by header (merging same-header loops).
        by_header: Dict[int, List[int]] = {}
        for t, h in cfg.edges():
            if dom.dominates(h, t):
                by_header.setdefault(h, []).append(t)

        self.loops: List[NaturalLoop] = []
        for header in sorted(by_header):
            tails = sorted(by_header[header])
            body = _natural_loop_body(cfg, header, tails)
            self.loops.append(NaturalLoop(
                header=header,
                body=frozenset(body),
                back_edges=tuple((t, header) for t in tails)))
        self._link_nesting()

    def _link_nesting(self) -> None:
        """Set parent/children by smallest-containing-body."""
        order = sorted(range(len(self.loops)),
                       key=lambda i: len(self.loops[i].body))
        for pos, i in enumerate(order):
            inner = self.loops[i]
            # Smallest strictly containing loop is the parent.
            for j in order[pos + 1:]:
                outer = self.loops[j]
                if i != j and inner.header in outer.body \
                        and inner.body <= outer.body:
                    inner.parent = j
                    outer.children.append(i)
                    break

    @property
    def headers(self) -> Set[int]:
        """All loop header nodes."""
        return {loop.header for loop in self.loops}

    def innermost_containing(self, node: int) -> Optional[NaturalLoop]:
        """The smallest loop whose body contains ``node``, if any."""
        best: Optional[NaturalLoop] = None
        for loop in self.loops:
            if node in loop.body and (best is None or
                                      len(loop.body) < len(best.body)):
                best = loop
        return best

    def __len__(self) -> int:
        return len(self.loops)

    def __iter__(self):
        return iter(self.loops)


def find_loops(cfg: ControlFlowGraph,
               dom: Optional[DominatorTree] = None) -> LoopForest:
    """Detect all natural loops of ``cfg``."""
    return LoopForest(cfg, dom)


def back_edges(cfg: ControlFlowGraph,
               dom: Optional[DominatorTree] = None) -> List[Tuple[int, int]]:
    """All back edges ``(tail, header)`` of ``cfg``."""
    dom = dom or compute_dominators(cfg)
    return [(t, h) for t, h in cfg.edges() if dom.dominates(h, t)]
