"""Dependence-DAG construction and list scheduling.

The optimisation phase's payoff in a two-phase DBT is instruction
scheduling over larger regions (the paper cites region-based compilation
[11] and hyperblocks [15]).  This module models that payoff: it builds
the data-dependence DAG of a straight-line sequence (RAW/WAR/WAW register
dependences plus conservative memory and call ordering) and list-schedules
it onto a ``width``-issue machine with per-opcode latencies, yielding the
cycle count the performance model can compare before/after optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.instructions import Instruction, Opcode
from .ir_utils import reads, touches_memory, writes

#: Default issue width (a modest in-order EPIC-style machine).
DEFAULT_WIDTH = 4

#: Default operation latencies in cycles (1 unless listed).
DEFAULT_LATENCIES: Dict[Opcode, int] = {
    Opcode.MUL: 3,
    Opcode.DIV: 12,
    Opcode.MOD: 12,
    Opcode.FADD: 3,
    Opcode.FSUB: 3,
    Opcode.FMUL: 4,
    Opcode.FDIV: 16,
    Opcode.LOAD: 3,
    Opcode.CALL: 8,
}


@dataclass(frozen=True)
class MachineModel:
    """Issue width + latency table of the modelled target."""

    width: int = DEFAULT_WIDTH
    latencies: Tuple[Tuple[Opcode, int], ...] = tuple(
        sorted(DEFAULT_LATENCIES.items(), key=lambda kv: kv[0].value))

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("issue width must be >= 1")

    def latency(self, opcode: Opcode) -> int:
        """Result latency of ``opcode`` in cycles."""
        for op, cycles in self.latencies:
            if op is opcode:
                return cycles
        return 1


@dataclass
class DependenceDAG:
    """Data/memory/ordering dependences of one instruction sequence."""

    code: List[Instruction]
    successors: List[List[int]] = field(default_factory=list)
    predecessors: List[List[int]] = field(default_factory=list)


def build_dag(code: List[Instruction]) -> DependenceDAG:
    """Dependence DAG with RAW/WAR/WAW, memory and call ordering edges."""
    n = len(code)
    succs: List[List[int]] = [[] for _ in range(n)]
    preds: List[List[int]] = [[] for _ in range(n)]
    edges = set()

    def add_edge(src: int, dst: int) -> None:
        if src != dst and (src, dst) not in edges:
            edges.add((src, dst))
            succs[src].append(dst)
            preds[dst].append(src)

    last_def: Dict[str, int] = {}
    last_uses: Dict[str, List[int]] = {}
    last_store: Optional[int] = None
    memory_since_store: List[int] = []
    last_barrier: Optional[int] = None   # calls order everything

    for i, instr in enumerate(code):
        # register dependences
        for reg in reads(instr):
            if reg in last_def:
                add_edge(last_def[reg], i)           # RAW
        for reg in writes(instr):
            if reg in last_def:
                add_edge(last_def[reg], i)           # WAW
            for use in last_uses.get(reg, ()):
                add_edge(use, i)                     # WAR
        # memory dependences (no disambiguation: store orders everything)
        if touches_memory(instr):
            if last_store is not None:
                add_edge(last_store, i)
            if instr.opcode is Opcode.STORE:
                for other in memory_since_store:
                    add_edge(other, i)
        # calls are full barriers
        if last_barrier is not None:
            add_edge(last_barrier, i)
        if instr.opcode is Opcode.CALL:
            for j in range(i):
                add_edge(j, i)
            last_barrier = i

        # update trackers
        for reg in reads(instr):
            last_uses.setdefault(reg, []).append(i)
        for reg in writes(instr):
            last_def[reg] = i
            last_uses[reg] = []
        if instr.opcode is Opcode.STORE:
            last_store = i
            memory_since_store = []
        elif touches_memory(instr):
            memory_since_store.append(i)

    return DependenceDAG(code=list(code), successors=succs,
                         predecessors=preds)


@dataclass
class Schedule:
    """Result of list scheduling: per-instruction issue cycles."""

    issue_cycle: List[int]
    length: int


def list_schedule(code: List[Instruction],
                  machine: MachineModel = MachineModel()) -> Schedule:
    """Greedy critical-path list scheduling.

    Ready instructions (all predecessors complete) issue in priority
    order — longest remaining critical path first — up to ``width`` per
    cycle.  Returns the issue cycle of each instruction and the total
    schedule length (the cycle after the last result completes).
    """
    if not code:
        return Schedule(issue_cycle=[], length=0)
    dag = build_dag(code)
    n = len(code)

    # critical-path priority (longest latency-weighted path to any sink)
    priority = [0] * n
    for i in range(n - 1, -1, -1):
        latency = machine.latency(code[i].opcode)
        best = 0
        for s in dag.successors[i]:
            best = max(best, priority[s])
        priority[i] = latency + best

    indegree = [len(dag.predecessors[i]) for i in range(n)]
    ready_at = [0] * n      # earliest cycle operands are available
    issue = [-1] * n
    finished = 0
    cycle = 0
    while finished < n:
        issued = 0
        # candidates: indegree 0, not yet issued, operands ready
        candidates = [i for i in range(n)
                      if indegree[i] == 0 and issue[i] < 0 and
                      ready_at[i] <= cycle]
        candidates.sort(key=lambda i: (-priority[i], i))
        for i in candidates[:machine.width]:
            issue[i] = cycle
            issued += 1
            complete = cycle + machine.latency(code[i].opcode)
            for s in dag.successors[i]:
                indegree[s] -= 1
                ready_at[s] = max(ready_at[s], complete)
            finished += 1
        cycle += 1
        if issued == 0 and finished < n:
            # stall until the next operand becomes available
            pending = [ready_at[i] for i in range(n)
                       if issue[i] < 0 and indegree[i] == 0]
            if pending:
                cycle = max(cycle, min(pending))

    length = max(issue[i] + machine.latency(code[i].opcode)
                 for i in range(n))
    return Schedule(issue_cycle=issue, length=length)


def sequential_cycles(code: List[Instruction],
                      machine: MachineModel = MachineModel()) -> int:
    """Cycle count of unscheduled, one-at-a-time execution (the baseline
    the quick translator's code achieves)."""
    return sum(machine.latency(instr.opcode) for instr in code)
