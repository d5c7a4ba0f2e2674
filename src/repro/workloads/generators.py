"""CFG generators for synthetic benchmarks.

A synthetic benchmark's control structure is assembled from *segments*
inside one driver loop:

* :class:`LoopSegment` — a (possibly two-deep) counted loop whose body
  mixes diamonds and straight-line blocks; the latch branch carries the
  loop's trip-count behaviour;
* :class:`BranchySegment` — a chain of two-way diamonds (control-intensive
  INT-style code);
* :class:`ChainSegment` — straight-line filler.

The driver loop's latch is taken with probability 1, so the run length is
set purely by the walker's ``max_steps`` — run lengths stay deterministic
while every interesting branch is stochastic.

Every interesting branch gets a *role name* (``"seg.d0"`` for diamond
splits, ``"seg.latch"``/``"seg.inner.latch"`` for loop latches) that the
benchmark characters attach behaviours to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..cfg.graph import ControlFlowGraph


@dataclass(frozen=True)
class LoopInfo:
    """Where a generated loop lives in the CFG."""

    header: int
    latch: int


@dataclass
class Workload:
    """A generated benchmark skeleton.

    Attributes:
        cfg: the control-flow graph.
        sizes: static instruction count per block (drives the cost model).
        branch_roles: role name -> branch node id (diamond splits and loop
            latches alike — latches also appear in ``loops``).
        loops: role name -> :class:`LoopInfo` for every generated loop.
        exit_block: the program's exit node.
    """

    cfg: ControlFlowGraph
    sizes: np.ndarray
    branch_roles: Dict[str, int]
    loops: Dict[str, LoopInfo]
    exit_block: int

    @property
    def num_blocks(self) -> int:
        """Block count of the skeleton."""
        return self.cfg.num_nodes


class WorkloadBuilder:
    """Low-level mutable CFG builder used by the segment assemblers."""

    def __init__(self, seed: int = 0):
        self._succs: List[List[Optional[int]]] = []
        self._sizes: List[int] = []
        self._labels: List[str] = []
        self.branch_roles: Dict[str, int] = {}
        self.loops: Dict[str, LoopInfo] = {}
        self.rng = random.Random(seed)

    # -- primitive blocks ------------------------------------------------------

    def block(self, label: str = "", size: Optional[int] = None,
              arity: int = 1) -> int:
        """New block with ``arity`` successor slots (0, 1 or 2)."""
        if arity not in (0, 1, 2):
            raise ValueError("arity must be 0, 1 or 2")
        v = len(self._succs)
        self._succs.append([None] * arity)
        self._sizes.append(size if size is not None
                           else self.rng.randint(3, 10))
        self._labels.append(label or f"b{v}")
        return v

    def wire(self, src: int, slot: int, dst: int) -> None:
        """Set successor ``slot`` of ``src`` (slot 0 = taken for branches)."""
        self._succs[src][slot] = dst

    def role(self, name: str, branch: int) -> int:
        """Register a branch node under a role name."""
        if name in self.branch_roles:
            raise ValueError(f"duplicate role {name!r}")
        self.branch_roles[name] = branch
        return branch

    # -- composite fragments -----------------------------------------------------
    # Fragments return (entry block, open block) where the open block's
    # slot 0 (or its designated fall slot) still needs wiring to the
    # continuation.

    def chain(self, n: int, label: str = "c") -> Tuple[int, int]:
        """``n`` straight-line blocks; returns (entry, last)."""
        if n < 1:
            raise ValueError("chain needs at least one block")
        first = self.block(f"{label}0")
        prev = first
        for i in range(1, n):
            b = self.block(f"{label}{i}")
            self.wire(prev, 0, b)
            prev = b
        return first, prev

    def diamond(self, role: str, label: str = "d") -> Tuple[int, int]:
        """Split/join diamond; returns (split, join); role = the split."""
        split = self.block(f"{label}.split", arity=2)
        arm_taken, arm_taken_end = self.chain(self.rng.randint(1, 2),
                                              f"{label}.t")
        arm_fall, arm_fall_end = self.chain(self.rng.randint(1, 2),
                                            f"{label}.f")
        join = self.block(f"{label}.join")
        self.wire(split, 0, arm_taken)
        self.wire(split, 1, arm_fall)
        self.wire(arm_taken_end, 0, join)
        self.wire(arm_fall_end, 0, join)
        self.role(role, split)
        return split, join

    def bottom_loop(self, role: str, body_entry: int, body_exit: int,
                    label: str = "loop") -> Tuple[int, int]:
        """Close a bottom-test loop around an already built body.

        Adds the latch branch after ``body_exit``: taken returns to
        ``body_entry`` (the back edge), fall-through leaves the loop.
        Returns (loop entry, latch); the latch's slot 1 needs wiring to
        the continuation.
        """
        latch = self.block(f"{label}.latch", arity=2, size=3)
        self.wire(body_exit, 0, latch)
        self.wire(latch, 0, body_entry)  # taken = loop back
        self.role(role, latch)
        self.loops[role] = LoopInfo(header=body_entry, latch=latch)
        return body_entry, latch

    # -- finishing ----------------------------------------------------------------

    def finish(self, entry: int = 0) -> Workload:
        """Freeze the builder into an immutable :class:`Workload`."""
        succs: List[Tuple[int, ...]] = []
        exit_block = None
        for v, slots in enumerate(self._succs):
            if any(s is None for s in slots):
                raise ValueError(f"block {self._labels[v]} (id {v}) has "
                                 "unwired successor slots")
            succs.append(tuple(slots))  # type: ignore[arg-type]
            if not slots:
                exit_block = v
        if exit_block is None:
            raise ValueError("workload has no exit block")
        cfg = ControlFlowGraph(succs, entry=entry, labels=list(self._labels))
        return Workload(cfg=cfg, sizes=np.asarray(self._sizes, dtype=float),
                        branch_roles=dict(self.branch_roles),
                        loops=dict(self.loops), exit_block=exit_block)


# ---------------------------------------------------------------------------
# Segment-level assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoopSegment:
    """A loop with ``diamonds`` diamonds and ``chain`` plain blocks in its
    body; ``nested=True`` adds an inner loop (role ``"<name>.inner"``)."""

    name: str
    diamonds: int = 1
    chain: int = 2
    nested: bool = False


@dataclass(frozen=True)
class BranchySegment:
    """A chain of ``diamonds`` diamonds (roles ``"<name>.d<i>"``)."""

    name: str
    diamonds: int = 3


@dataclass(frozen=True)
class ChainSegment:
    """``blocks`` straight-line blocks (no roles)."""

    name: str
    blocks: int = 3


Segment = Union[LoopSegment, BranchySegment, ChainSegment]


def _build_loop_body(builder: WorkloadBuilder, seg: LoopSegment,
                     prefix: str) -> Tuple[int, int]:
    """The body of a loop segment; returns (entry, open end block)."""
    entry, end = builder.chain(1, f"{prefix}.head")
    for i in range(seg.diamonds):
        split, join = builder.diamond(f"{prefix}.d{i}", f"{prefix}.d{i}")
        builder.wire(end, 0, split)
        end = join
    if seg.chain > 0:
        c_entry, c_end = builder.chain(seg.chain, f"{prefix}.c")
        builder.wire(end, 0, c_entry)
        end = c_end
    return entry, end


def _build_segment(builder: WorkloadBuilder, seg: Segment) -> Tuple[int, int]:
    """Build one segment; returns (entry, open end block)."""
    if isinstance(seg, ChainSegment):
        return builder.chain(seg.blocks, seg.name)
    if isinstance(seg, BranchySegment):
        entry, end = builder.chain(1, f"{seg.name}.head")
        for i in range(seg.diamonds):
            split, join = builder.diamond(f"{seg.name}.d{i}",
                                          f"{seg.name}.d{i}")
            builder.wire(end, 0, split)
            end = join
        return entry, end
    if isinstance(seg, LoopSegment):
        body_entry, body_end = _build_loop_body(builder, seg, seg.name)
        if seg.nested:
            inner_name = f"{seg.name}.inner"
            # The inner loop mirrors the outer body's branchiness: INT
            # nests keep a diamond, FP (diamond-free) nests stay
            # straight-line so their loop regions have no side exits.
            inner_seg = LoopSegment(inner_name,
                                    diamonds=min(seg.diamonds, 1), chain=1)
            in_entry, in_end = _build_loop_body(builder, inner_seg,
                                                inner_name)
            _, in_latch = builder.bottom_loop(inner_name, in_entry, in_end,
                                              inner_name)
            builder.wire(body_end, 0, in_entry)
            # Continue the outer body after the inner loop exits.
            after = builder.block(f"{seg.name}.after")
            builder.wire(in_latch, 1, after)
            body_end = after
        _, latch = builder.bottom_loop(seg.name, body_entry, body_end,
                                       seg.name)
        return body_entry, latch
    raise TypeError(f"unknown segment type {type(seg)!r}")


#: Role name of the driver loop's latch (taken with probability 1).
DRIVER_ROLE = "driver"


def build_workload(segments: Sequence[Segment], seed: int = 0) -> Workload:
    """Assemble a benchmark skeleton: segments inside one driver loop.

    The driver latch (role :data:`DRIVER_ROLE`) loops with probability 1 —
    the walker's ``max_steps`` bounds the run — and falls through to the
    exit block, so the CFG still has a well-formed program exit.
    """
    if not segments:
        raise ValueError("need at least one segment")
    names = [seg.name for seg in segments]
    if len(set(names)) != len(names):
        raise ValueError("segment names must be unique")

    builder = WorkloadBuilder(seed=seed)
    entry = builder.block("entry", size=2)

    prev_open: Tuple[int, int] = (entry, 0)  # (block, slot) awaiting wiring
    driver_entry: Optional[int] = None
    for seg in segments:
        seg_entry, seg_end = _build_segment(builder, seg)
        if driver_entry is None:
            driver_entry = seg_entry
        block, slot = prev_open
        builder.wire(block, slot, seg_entry)
        # Loop segments end at their latch, whose fall slot (1) is open;
        # other segments end at a plain block with slot 0 open.
        open_slot = 1 if isinstance(seg, LoopSegment) else 0
        prev_open = (seg_end, open_slot)

    assert driver_entry is not None
    driver_latch = builder.block("driver.latch", arity=2, size=2)
    block, slot = prev_open
    builder.wire(block, slot, driver_latch)
    builder.wire(driver_latch, 0, driver_entry)  # taken = next iteration
    builder.role(DRIVER_ROLE, driver_latch)
    builder.loops[DRIVER_ROLE] = LoopInfo(header=driver_entry,
                                          latch=driver_latch)
    exit_block = builder.block("exit", arity=0, size=1)
    builder.wire(driver_latch, 1, exit_block)
    return builder.finish(entry=entry)
