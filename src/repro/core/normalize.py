"""AVEP → NAVEP normalisation (paper §3.1).

The optimisation phase duplicates blocks into multiple regions, so INIP(T)
sees a *duplicated* control-flow graph while AVEP sees the original one.
To compare them, AVEP is normalised onto INIP(T)'s graph:

* the duplicated graph's nodes are every region member *instance* plus
  every original block (originals of optimised blocks model the residual
  unoptimised side-entry executions);
* each copy of block ``b`` inherits ``b``'s AVEP branch probability;
* copies' frequencies are recovered by Markov modelling — non-duplicated
  blocks' AVEP frequencies are constants, duplicated copies are unknowns
  (solved in :mod:`repro.core.markov`).

:class:`DuplicatedGraph` materialises that graph from an INIP snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..cfg.graph import ControlFlowGraph
from ..profiles.model import EdgeKind, ProfileSnapshot, Region


@dataclass(frozen=True)
class CopyRef:
    """One node of the duplicated graph.

    ``region_id`` is None for an original (non-instance) block node;
    otherwise the node is ``instance`` of that region.
    """

    block_id: int
    region_id: Optional[int] = None
    instance: Optional[int] = None

    @property
    def is_instance(self) -> bool:
        """True for region-member copies, False for original block nodes."""
        return self.region_id is not None


class DuplicatedGraph:
    """INIP(T)'s view of the program: region instances + original blocks.

    Args:
        cfg: the original static CFG.
        snapshot: the INIP profile whose regions define the duplication.

    Attributes:
        nodes: every :class:`CopyRef`, densely indexed (originals first in
            block-id order, then instances in region order).
        edges: ``(src_node, dst_node, EdgeKind)`` triples.
    """

    def __init__(self, cfg: ControlFlowGraph, snapshot: ProfileSnapshot):
        self.cfg = cfg
        self.snapshot = snapshot
        self.nodes: List[CopyRef] = []
        self._index: Dict[CopyRef, int] = {}
        self.edges: List[Tuple[int, int, EdgeKind]] = []
        # block id -> node indices of its copies, in node order.
        self._copies: Dict[int, List[int]] = {}
        # block id -> node that control flow targeting it reaches.
        self._lands_on: List[int] = []
        # Region entered at block b => control transfers to b land on the
        # region's entry instance rather than the original block.
        self._entry_region: Dict[int, Region] = {}
        for region in snapshot.regions:
            # A block seeds at most one region, so entries are unique.
            self._entry_region.setdefault(region.entry_block, region)
        self._build()

    # -- construction ----------------------------------------------------------

    def _add_node(self, ref: CopyRef) -> int:
        idx = self._index.get(ref)
        if idx is None:
            idx = len(self.nodes)
            self.nodes.append(ref)
            self._index[ref] = idx
        return idx

    def _redirect(self, block_id: int) -> int:
        """Node that control flow targeting ``block_id`` actually reaches."""
        return self._lands_on[block_id]

    def _build(self) -> None:
        cfg = self.cfg
        originals = [self._add_node(CopyRef(block_id))
                     for block_id in range(cfg.num_nodes)]
        instances = [[self._add_node(CopyRef(block_id, region.region_id, i))
                      for i, block_id in enumerate(region.members)]
                     for region in self.snapshot.regions]
        for idx, ref in enumerate(self.nodes):
            self._copies.setdefault(ref.block_id, []).append(idx)
        # Control flow targeting a block lands on its original node, or
        # on the entry instance of the region the block seeds.
        self._lands_on = list(originals)
        for block_id, region in self._entry_region.items():
            self._lands_on[block_id] = self._index[
                CopyRef(region.entry_block, region.region_id, 0)]
        redirect = self._lands_on

        # Original blocks keep their CFG successors, redirected through
        # region entries.
        for block_id in range(cfg.num_nodes):
            src = originals[block_id]
            succ = cfg.successors(block_id)
            if len(succ) == 2:
                self.edges.append((src, redirect[succ[0]], EdgeKind.TAKEN))
                self.edges.append((src, redirect[succ[1]], EdgeKind.FALL))
            elif len(succ) == 1:
                self.edges.append((src, redirect[succ[0]], EdgeKind.ALWAYS))

        # Region instances follow the region structure.
        for region, base in zip(self.snapshot.regions, instances):
            for s, d, kind in region.internal_edges:
                self.edges.append((base[s], base[d], kind))
            for s, kind in region.back_edges:
                self.edges.append((base[s], base[0], kind))
            for s, kind, target in region.exit_edges:
                self.edges.append((base[s], redirect[target], kind))

    # -- queries ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Total copies (originals + instances)."""
        return len(self.nodes)

    def node_index(self, ref: CopyRef) -> int:
        """Dense index of a copy."""
        return self._index[ref]

    def duplicated_blocks(self) -> Set[int]:
        """Blocks with at least one region instance (the 'duplicated' ones
        whose copy frequencies must be solved rather than read off AVEP)."""
        # Every block has its original node, so more copies means
        # at least one region instance.
        return {block for block, copies in self._copies.items()
                if len(copies) > 1}

    def copies_of(self, block_id: int) -> List[int]:
        """Node indices of every copy of ``block_id``, in node order."""
        return list(self._copies.get(block_id, ()))

    def entry_node(self) -> int:
        """Node where program entry lands (redirected through regions)."""
        return self._redirect(self.cfg.entry)
