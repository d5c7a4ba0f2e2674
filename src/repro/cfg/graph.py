"""Control-flow graphs over dense block ids.

The rest of the system (walker, DBT, analysis) operates on a light-weight
:class:`ControlFlowGraph`: nodes are dense integers ``0..n-1``, each node has
an ordered successor tuple, and for two-way branches the *taken* successor
always comes first — mirroring the taken/fall-through counter convention of
the paper's profiler.

CFGs can be built directly (synthetic workloads do this) or derived from a
VIR :class:`~repro.ir.program.Program` / :class:`~repro.ir.program.Function`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:
    from ..ir.program import BlockRef, Function, Program


class CFGError(ValueError):
    """Raised for malformed control-flow graphs."""


@dataclass
class ControlFlowGraph:
    """A rooted directed graph with ordered successors.

    Attributes:
        succs: ``succs[v]`` is the ordered successor tuple of node ``v``.
            Two entries = conditional branch (taken first); one entry =
            unconditional transfer; empty = program/function exit.
        entry: the root node.
        labels: optional human-readable node names (defaults to ``"b<i>"``).
    """

    succs: List[Tuple[int, ...]]
    entry: int = 0
    labels: Optional[List[str]] = None

    def __post_init__(self) -> None:
        n = len(self.succs)
        if not 0 <= self.entry < n:
            raise CFGError(f"entry {self.entry} out of range for {n} nodes")
        for v, ss in enumerate(self.succs):
            if len(ss) > 2:
                raise CFGError(f"node {v} has {len(ss)} successors; "
                               "VIR blocks have at most two")
            for s in ss:
                if not 0 <= s < n:
                    raise CFGError(f"edge {v}->{s} leaves the graph")
        if self.labels is None:
            self.labels = [f"b{v}" for v in range(n)]
        elif len(self.labels) != n:
            raise CFGError("labels length does not match node count")

    # -- basic queries --------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.succs)

    def successors(self, v: int) -> Tuple[int, ...]:
        """Ordered successors of ``v`` (taken target first)."""
        return self.succs[v]

    def is_branch(self, v: int) -> bool:
        """True if ``v`` ends in a two-way conditional branch."""
        return len(self.succs[v]) == 2

    def is_exit(self, v: int) -> bool:
        """True if ``v`` has no successors."""
        return not self.succs[v]

    def taken_target(self, v: int) -> Optional[int]:
        """The taken successor of a branch node, else None."""
        return self.succs[v][0] if self.is_branch(v) else None

    def fallthrough_target(self, v: int) -> Optional[int]:
        """The fall-through successor of a branch node, else None."""
        return self.succs[v][1] if self.is_branch(v) else None

    def label(self, v: int) -> str:
        """Human-readable name of node ``v``."""
        assert self.labels is not None
        return self.labels[v]

    def edges(self) -> Iterable[Tuple[int, int]]:
        """All edges as (src, dst) pairs, successor order preserved."""
        for v, ss in enumerate(self.succs):
            for s in ss:
                yield (v, s)

    def predecessors(self) -> List[List[int]]:
        """Predecessor lists for every node (multi-edges preserved)."""
        preds: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for v, s in self.edges():
            preds[s].append(v)
        return preds

    def branch_nodes(self) -> List[int]:
        """All nodes ending in a conditional branch."""
        return [v for v in range(self.num_nodes) if self.is_branch(v)]

    def exit_nodes(self) -> List[int]:
        """All nodes with no successors."""
        return [v for v in range(self.num_nodes) if self.is_exit(v)]


def cfg_from_function(fn: Function) -> Tuple[ControlFlowGraph, Dict[str, int]]:
    """Build the intra-procedural CFG of one VIR function.

    Returns the graph plus a mapping from block label to node id.  Node ids
    follow block insertion order; the taken target of each ``br`` is the
    first successor.
    """
    ids = {block.label: i for i, block in enumerate(fn)}
    succs: List[Tuple[int, ...]] = []
    for block in fn:
        succs.append(tuple(ids[lbl] for lbl in block.successor_labels()))
    entry = ids[fn.entry] if fn.entry is not None else 0
    labels = [block.label for block in fn]
    return ControlFlowGraph(succs, entry=entry, labels=labels), ids


def cfg_from_program(program: Program) -> Tuple[ControlFlowGraph,
                                                Dict[BlockRef, int]]:
    """Build a whole-program block graph (intra-procedural edges only).

    ``call`` transfers are not edges here — the interpreter handles the call
    stack — so the graph is the disjoint union of the per-function CFGs,
    rooted at the entry function's entry block.  Node ids coincide with
    :meth:`Program.block_ids`.
    """
    from ..ir.program import BlockRef

    ids = program.block_ids()
    succs: List[Tuple[int, ...]] = []
    labels: List[str] = []
    for ref, block in program.block_table():
        fn = program.functions[ref.function]
        local = {b.label: BlockRef(fn.name, b.label) for b in fn}
        succs.append(tuple(ids[local[lbl]]
                           for lbl in block.successor_labels()))
        labels.append(f"{ref.function}:{ref.label}")
    entry_fn = program.entry_function
    entry = ids[BlockRef(entry_fn.name, entry_fn.entry)]  # type: ignore[arg-type]
    return ControlFlowGraph(succs, entry=entry, labels=labels), ids
