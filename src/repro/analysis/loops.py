"""Loop-nest forests over whole programs plus irreducibility detection.

:mod:`repro.cfg.loops` detects natural loops of one CFG; this module
lifts that to VIR programs (one forest per function) and adds the one
thing natural-loop detection cannot see: *irreducible* edges.  A DFS
retreating edge whose header does not dominate its tail means control
enters a cycle at two places — the region former's single-entry
assumption breaks there, so the verifier flags such edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cfg.dominators import DominatorTree, compute_dominators
from ..cfg.graph import ControlFlowGraph, cfg_from_function
from ..cfg.loops import LoopForest, NaturalLoop, back_edges, find_loops
from ..ir.program import Program

__all__ = [
    "LoopForest", "NaturalLoop", "back_edges", "find_loops",
    "FunctionLoops", "program_loop_forests", "irreducible_edges",
]


@dataclass
class FunctionLoops:
    """The loop structure of one function.

    Attributes:
        function: function name.
        cfg: the function's CFG (local node ids).
        label_to_node: block label -> local node id.
        forest: the natural-loop forest.
        irreducible: retreating edges that are not natural back edges.
    """

    function: str
    cfg: ControlFlowGraph
    label_to_node: Dict[str, int]
    forest: LoopForest
    irreducible: List[Tuple[int, int]]


def irreducible_edges(cfg: ControlFlowGraph,
                      dom: Optional[DominatorTree] = None
                      ) -> List[Tuple[int, int]]:
    """Retreating edges ``(tail, head)`` whose head does not dominate the
    tail — the witness edges of irreducible control flow.

    A DFS from the entry classifies an edge as *retreating* when it
    targets a node currently on the DFS stack or already finished but
    visited earlier on this spine; for reducible graphs every retreating
    edge is a back edge (head dominates tail), so anything left over is
    irreducible.
    """
    dom = dom or compute_dominators(cfg)
    state = [0] * cfg.num_nodes  # 0 unvisited, 1 on stack, 2 done
    out: List[Tuple[int, int]] = []
    stack: List[Tuple[int, int]] = [(cfg.entry, 0)]
    state[cfg.entry] = 1
    while stack:
        node, index = stack[-1]
        targets = cfg.successors(node)
        if index < len(targets):
            stack[-1] = (node, index + 1)
            nxt = targets[index]
            if state[nxt] == 0:
                state[nxt] = 1
                stack.append((nxt, 0))
            elif state[nxt] == 1 and not dom.dominates(nxt, node):
                out.append((node, nxt))
        else:
            state[node] = 2
            stack.pop()
    return out


def function_loops(program: Program, name: str) -> FunctionLoops:
    """Loop structure of one function of ``program``."""
    fn = program.functions[name]
    cfg, label_to_node = cfg_from_function(fn)
    dom = compute_dominators(cfg)
    return FunctionLoops(
        function=name,
        cfg=cfg,
        label_to_node=label_to_node,
        forest=find_loops(cfg, dom),
        irreducible=irreducible_edges(cfg, dom),
    )


def program_loop_forests(program: Program) -> Dict[str, FunctionLoops]:
    """Per-function loop structure for every function of ``program``."""
    return {name: function_loops(program, name)
            for name in program.functions}
