"""Profile data model: what the simulated translator writes out.

Mirrors the paper's methodology section: a profile snapshot holds, per
block, the **use** and **taken** counters (frozen at optimisation time for
INIP, whole-run for AVEP), plus — for INIP only — the **regions** the
optimisation phase formed (entry, member blocks with duplication, internal
edges, side exits and loop back edges).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class RegionKind(enum.Enum):
    """Region flavours the optimiser forms (paper §2.2/§2.3)."""

    LINEAR = "linear"   # non-loop region; has a completion probability
    LOOP = "loop"       # loop region; has a loop-back probability


class EdgeKind(enum.Enum):
    """Which half of a block's terminator an edge corresponds to."""

    TAKEN = "taken"       # the conditional branch's taken edge
    FALL = "fall"         # the conditional branch's fall-through edge
    ALWAYS = "always"     # the single edge of an unconditional transfer

    def probability(self, branch_probability: Optional[float]) -> float:
        """Probability mass this edge carries given the block's BP."""
        if self is EdgeKind.ALWAYS:
            return 1.0
        if branch_probability is None:
            return 0.5  # unprofiled branch: uninformative prior
        if self is EdgeKind.TAKEN:
            return branch_probability
        return 1.0 - branch_probability


@dataclass
class BlockProfile:
    """Profiling counters of one original block.

    Attributes:
        block_id: original (static) block id.
        use: times the block was counted executing.
        taken: times its conditional branch was counted taken.
        frozen_at: global step at which counting stopped because the block
            was optimised into a region (None = counted to run end).
    """

    block_id: int
    use: int = 0
    taken: int = 0
    frozen_at: Optional[int] = None

    @property
    def branch_probability(self) -> Optional[float]:
        """``taken/use``, or None when the block never executed."""
        if self.use <= 0:
            return None
        return self.taken / self.use

    @property
    def is_frozen(self) -> bool:
        """True if counting stopped before the end of the run."""
        return self.frozen_at is not None


@dataclass
class Region:
    """One optimised region, with member duplication made explicit.

    Member blocks are *instances*: position ``i`` in ``members`` is instance
    ``i`` of the region and holds the id of the original block it was
    duplicated from.  Instance 0 is always the region entry.

    Attributes:
        region_id: unique within a snapshot.
        kind: loop or non-loop.
        members: original block id per instance (entry first).
        internal_edges: ``(src_instance, dst_instance, EdgeKind)`` — control
            flow kept inside the optimised region.
        exit_edges: ``(src_instance, EdgeKind, target_block_id)`` — side
            exits back to unoptimised code.
        back_edges: ``(src_instance, EdgeKind)`` — edges returning to the
            entry instance (loop regions only).
        tail: instance index of the region's last block (the completion
            target of a LINEAR region; ignored for loops).
        formed_at: global step of the optimisation event that created it.
    """

    region_id: int
    kind: RegionKind
    members: List[int]
    internal_edges: List[Tuple[int, int, EdgeKind]] = field(
        default_factory=list)
    exit_edges: List[Tuple[int, EdgeKind, int]] = field(default_factory=list)
    back_edges: List[Tuple[int, EdgeKind]] = field(default_factory=list)
    tail: int = 0
    formed_at: int = 0

    @property
    def entry_block(self) -> int:
        """Original block id of the region entry."""
        return self.members[0]

    @property
    def num_instances(self) -> int:
        """Number of member instances (duplicates counted separately)."""
        return len(self.members)

    def instance_successors(self, instance: int) -> List[Tuple[EdgeKind, Optional[int], Optional[int]]]:
        """All out-edges of ``instance``.

        Returns tuples ``(kind, internal_dst_instance, exit_target_block)``
        where exactly one of the last two is non-None (back edges report the
        entry instance 0 as the internal destination).
        """
        out: List[Tuple[EdgeKind, Optional[int], Optional[int]]] = []
        for src, dst, kind in self.internal_edges:
            if src == instance:
                out.append((kind, dst, None))
        for src, kind in self.back_edges:
            if src == instance:
                out.append((kind, 0, None))
        for src, kind, target in self.exit_edges:
            if src == instance:
                out.append((kind, None, target))
        return out

    def validate(self) -> None:
        """Check structural sanity; raises ValueError on problems."""
        n = self.num_instances
        if n == 0:
            raise ValueError(f"region {self.region_id} has no members")
        for src, dst, _ in self.internal_edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(
                    f"region {self.region_id}: internal edge "
                    f"({src},{dst}) out of range")
        for src, _ in self.back_edges:
            if not 0 <= src < n:
                raise ValueError(
                    f"region {self.region_id}: back edge from {src} "
                    "out of range")
        for src, _, _ in self.exit_edges:
            if not 0 <= src < n:
                raise ValueError(
                    f"region {self.region_id}: exit edge from {src} "
                    "out of range")
        if not 0 <= self.tail < n:
            raise ValueError(f"region {self.region_id}: tail out of range")
        if self.kind is RegionKind.LOOP and not self.back_edges:
            raise ValueError(
                f"region {self.region_id}: loop region without back edges")


@dataclass
class ProfileSnapshot:
    """A complete profile: INIP(T), INIP(train) or AVEP.

    Attributes:
        label: human-readable identity, e.g. ``"INIP(2000)"`` or ``"AVEP"``.
        input_name: which input produced it (``"ref"`` / ``"train"``).
        threshold: retranslation threshold for INIP snapshots, else None.
        blocks: per-block counters (see :class:`BlockProfile`).
        regions: regions formed (empty for AVEP — optimisation disabled).
        total_steps: run length in block executions.
        profiling_ops: total counter increments performed (use + taken),
            the quantity of the paper's Figure 18.
    """

    label: str
    input_name: str
    threshold: Optional[int]
    blocks: Dict[int, BlockProfile] = field(default_factory=dict)
    regions: List[Region] = field(default_factory=list)
    total_steps: int = 0
    profiling_ops: int = 0

    def branch_probability(self, block_id: int) -> Optional[float]:
        """BP of ``block_id`` in this profile, if the block was counted."""
        profile = self.blocks.get(block_id)
        return None if profile is None else profile.branch_probability

    def block_frequency(self, block_id: int) -> int:
        """Use count of ``block_id`` (0 if absent)."""
        profile = self.blocks.get(block_id)
        return 0 if profile is None else profile.use

    def loop_regions(self) -> List[Region]:
        """Regions with loop-back probabilities (paper §2.3)."""
        return [r for r in self.regions if r.kind is RegionKind.LOOP]

    def linear_regions(self) -> List[Region]:
        """Non-loop regions with completion probabilities (paper §2.2)."""
        return [r for r in self.regions if r.kind is RegionKind.LINEAR]

    def optimized_blocks(self) -> Dict[int, List[Region]]:
        """Original block id -> regions containing an instance of it."""
        out: Dict[int, List[Region]] = {}
        for region in self.regions:
            for block_id in region.members:
                out.setdefault(block_id, []).append(region)
        return out

    def validate(self) -> None:
        """Structural sanity of the whole snapshot."""
        for block_id, profile in self.blocks.items():
            if block_id != profile.block_id:
                raise ValueError(f"block key {block_id} != profile id "
                                 f"{profile.block_id}")
            if profile.taken > profile.use:
                raise ValueError(
                    f"block {block_id}: taken {profile.taken} exceeds "
                    f"use {profile.use}")
        for region in self.regions:
            region.validate()
