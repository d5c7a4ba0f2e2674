"""Block-level stochastic execution of a CFG — the scalable engine.

Interpreting tens of millions of guest instructions per benchmark (as the
paper's IA32EL runs did) is not feasible in pure Python, but nothing in the
study needs instruction semantics: every metric derives from the per-block
use/taken event stream.  :class:`CFGWalker` therefore executes a benchmark
*at basic-block granularity*: at each step it samples the current block's
branch outcome from its :class:`~repro.stochastic.behavior.BranchBehavior`
and moves along the corresponding edge, recording the event stream as an
:class:`~repro.stochastic.trace.ExecutionTrace`.

The walker records the same block/branch stream the instruction
interpreter emits (:class:`TraceRecorder` turns an interpreter run into the
same trace format); the walker is simply the engine that makes
SPEC2000-scale runs tractable (run lengths are additionally scaled — see
DESIGN.md §2).
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

import numpy as np

from ..cfg.graph import ControlFlowGraph
from .behavior import BranchBehavior, ProgramBehavior
from .trace import NO_BRANCH, ExecutionTrace


class TraceRecorder:
    """An :class:`ExecutionListener` that builds an :class:`ExecutionTrace`.

    Attach it to the instruction interpreter to obtain the same trace
    format the walker produces::

        recorder = TraceRecorder(program.num_blocks())
        Interpreter(program, listener=recorder).run()
        trace = recorder.trace()
    """

    def __init__(self, num_blocks: int):
        self.num_blocks = num_blocks
        self._blocks: List[int] = []
        self._taken: List[int] = []

    def on_block(self, block_id: int) -> None:  # noqa: D102
        self._blocks.append(block_id)
        self._taken.append(NO_BRANCH)

    def on_branch(self, block_id: int, taken: bool) -> None:  # noqa: D102
        # The branch belongs to the most recently entered block.
        self._taken[-1] = 1 if taken else 0

    def trace(self) -> ExecutionTrace:
        """The trace accumulated so far."""
        return ExecutionTrace.from_sequences(self._blocks, self._taken,
                                             self.num_blocks)


class CFGWalker:
    """Stochastic block-level executor of one benchmark.

    Args:
        cfg: the benchmark CFG (branch nodes have taken successor first).
        behavior: per-branch taken-probability models.
        seed: RNG seed; a benchmark+input+seed triple fully determines the
            trace, which is what makes INIP/AVEP comparisons exact.
    """

    def __init__(self, cfg: ControlFlowGraph, behavior: ProgramBehavior,
                 seed: int = 0):
        self.cfg = cfg
        self.behavior = behavior
        self.seed = seed
        self._compile()

    def _compile(self) -> None:
        """Flatten behaviours into arrays the hot loop can index cheaply."""
        cfg = self.cfg
        n = cfg.num_nodes
        self._taken_succ = np.full(n, -1, dtype=np.int64)
        self._fall_succ = np.full(n, -1, dtype=np.int64)
        self._single_succ = np.full(n, -1, dtype=np.int64)
        self._is_branch = np.zeros(n, dtype=bool)
        for v in range(n):
            succ = cfg.successors(v)
            if len(succ) == 2:
                self._is_branch[v] = True
                self._taken_succ[v] = succ[0]
                self._fall_succ[v] = succ[1]
            elif len(succ) == 1:
                self._single_succ[v] = succ[0]

        # Piecewise-constant schedules: current probability per branch plus a
        # globally sorted list of (step, node, new_p) change events.
        self._cur_p = np.full(n, 0.5, dtype=float)
        changes: List[Tuple[float, int, float]] = []
        self._warmup_left = np.zeros(n, dtype=np.int64)
        self._warmup_p = np.zeros(n, dtype=float)
        for v in range(n):
            if not self._is_branch[v]:
                continue
            b: BranchBehavior = self.behavior.behavior_of(v)
            self._cur_p[v] = b.phases[0].p
            for i, phase in enumerate(b.phases[:-1]):
                changes.append((phase.until, v, b.phases[i + 1].p))
            self._warmup_left[v] = b.warmup_uses
            self._warmup_p[v] = b.warmup_p
        changes.sort()
        self._changes = changes

    def run(self, max_steps: int,
            start: Optional[int] = None) -> ExecutionTrace:
        """Walk the CFG for up to ``max_steps`` block executions.

        The walk ends early if an exit node (no successors) is reached.
        """
        cfg = self.cfg
        rng = random.Random(self.seed)
        rand = rng.random

        # Local aliases: the loop below is the hottest code in the project.
        cur_p = self._cur_p.tolist()
        taken_succ = self._taken_succ.tolist()
        fall_succ = self._fall_succ.tolist()
        single_succ = self._single_succ.tolist()
        is_branch = self._is_branch.tolist()
        warmup_left = self._warmup_left.tolist()
        warmup_p = self._warmup_p.tolist()
        changes = self._changes
        change_idx = 0
        num_changes = len(changes)
        next_change = changes[0][0] if changes else math.inf

        blocks: List[int] = []
        taken_out: List[int] = []
        append_block = blocks.append
        append_taken = taken_out.append

        v = cfg.entry if start is None else start
        step = 0
        while step < max_steps:
            if step >= next_change:
                while change_idx < num_changes and \
                        changes[change_idx][0] <= step:
                    _, node, new_p = changes[change_idx]
                    cur_p[node] = new_p
                    change_idx += 1
                next_change = changes[change_idx][0] \
                    if change_idx < num_changes else math.inf

            append_block(v)
            step += 1
            if is_branch[v]:
                if warmup_left[v] > 0:
                    warmup_left[v] -= 1
                    p = warmup_p[v]
                else:
                    p = cur_p[v]
                if rand() < p:
                    append_taken(1)
                    v = taken_succ[v]
                else:
                    append_taken(0)
                    v = fall_succ[v]
            else:
                append_taken(NO_BRANCH)
                nxt = single_succ[v]
                if nxt < 0:
                    break  # reached an exit node
                v = nxt

        return ExecutionTrace.from_sequences(blocks, taken_out,
                                             cfg.num_nodes)


def walk(cfg: ControlFlowGraph, behavior: ProgramBehavior, max_steps: int,
         seed: int = 0) -> ExecutionTrace:
    """One-shot convenience wrapper around :class:`CFGWalker`."""
    return CFGWalker(cfg, behavior, seed=seed).run(max_steps)
