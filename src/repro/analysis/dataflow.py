"""Classic iterative dataflow analyses over VIR functions.

The verifier (:mod:`repro.analysis.verify`) needs **reaching
definitions** (forward, may) at basic-block granularity: which
``(block, index, reg)`` definition sites can reach each program point —
the basis of the possibly-undefined-read lint.

It is solved by a generic worklist engine (:class:`IterativeDataflow`)
over the intra-function label graph.  VIR
has no SSA form and no function parameters, so the lattices are plain
register/definition sets; ``call`` instructions are modelled
conservatively (they may read and write every register in the function).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..ir.instructions import Instruction, Opcode
from ..ir.program import Function
from ..opt.ir_utils import reads, writes


@dataclass(frozen=True)
class Definition:
    """One static definition site: instruction ``index`` of ``block``
    defines register ``reg``.  ``index`` is -1 for the synthetic
    all-register definition a ``call`` introduces."""

    block: str
    index: int
    reg: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.block}[{self.index}]:{self.reg}"


def function_flow(fn: Function) -> Tuple[List[str], Dict[str, Tuple[str, ...]],
                                         Dict[str, List[str]]]:
    """The intra-function label graph: (labels, successors, predecessors).

    Labels preserve block insertion order; successor tuples keep the
    taken-target-first convention of the terminators.
    """
    labels = [block.label for block in fn]
    succs: Dict[str, Tuple[str, ...]] = {}
    preds: Dict[str, List[str]] = {label: [] for label in labels}
    for block in fn:
        succs[block.label] = block.successor_labels() if block.is_sealed \
            else ()
        for target in succs[block.label]:
            preds.setdefault(target, []).append(block.label)
    return labels, succs, preds


def register_universe(fn: Function) -> FrozenSet[str]:
    """Every register named anywhere in the function."""
    regs: Set[str] = set()
    for block in fn:
        for instr in block.instructions:
            regs.update(instr.regs)
    return frozenset(regs)


class IterativeDataflow:
    """Worklist solver for set-based may problems on a label graph.

    Args:
        labels: all nodes, in a deterministic order.
        edges: per label, the neighbours *in the direction of flow*
            (successors for forward problems, predecessors for backward).
        gen: facts a node generates.
        kill: facts a node kills.

    ``solve`` returns ``(in_map, out_map)`` in flow direction: for a
    forward problem ``in`` is the meet over predecessors; for a backward
    problem callers pass predecessor edges and read ``in`` as live-out.
    """

    def __init__(self, labels: Sequence[str],
                 flow_into: Dict[str, List[str]],
                 gen: Dict[str, FrozenSet], kill: Dict[str, FrozenSet]):
        self.labels = list(labels)
        self.flow_into = flow_into
        self.gen = gen
        self.kill = kill

    def solve(self) -> Tuple[Dict[str, FrozenSet], Dict[str, FrozenSet]]:
        """Iterate to the least fixed point (union meet, empty init)."""
        in_map: Dict[str, FrozenSet] = {lb: frozenset() for lb in self.labels}
        out_map: Dict[str, FrozenSet] = {lb: frozenset() for lb in self.labels}
        changed = True
        while changed:
            changed = False
            for label in self.labels:
                new_in = frozenset().union(
                    *(out_map[p] for p in self.flow_into.get(label, ())))
                new_out = (new_in - self.kill[label]) | self.gen[label]
                if new_in != in_map[label] or new_out != out_map[label]:
                    in_map[label] = new_in
                    out_map[label] = new_out
                    changed = True
        return in_map, out_map


def _block_def_sites(block_label: str,
                     code: Sequence[Instruction],
                     universe: FrozenSet[str]) -> List[Definition]:
    """All definition sites of one block, calls expanded conservatively."""
    sites: List[Definition] = []
    for index, instr in enumerate(code):
        if instr.opcode is Opcode.CALL:
            # The callee may write anything: one synthetic site per
            # register, marked with the call's index.
            sites.extend(Definition(block_label, index, reg)
                         for reg in sorted(universe))
        else:
            sites.extend(Definition(block_label, index, reg)
                         for reg in writes(instr))
    return sites


class ReachingDefinitions:
    """Reaching definitions of one VIR function.

    Attributes:
        reach_in / reach_out: per block label, the definition sites that
            may reach block entry / exit.
        all_definitions: every definition site in the function.
    """

    def __init__(self, fn: Function):
        self.fn = fn
        self.universe = register_universe(fn)
        labels, succs, preds = function_flow(fn)

        self.all_definitions: List[Definition] = []
        gen: Dict[str, FrozenSet] = {}
        kill: Dict[str, FrozenSet] = {}
        defs_of_reg: Dict[str, Set[Definition]] = {}
        block_sites: Dict[str, List[Definition]] = {}
        for block in fn:
            sites = _block_def_sites(block.label, block.instructions,
                                     self.universe)
            block_sites[block.label] = sites
            self.all_definitions.extend(sites)
            for site in sites:
                defs_of_reg.setdefault(site.reg, set()).add(site)
        for block in fn:
            downward: Dict[str, Definition] = {}
            for site in block_sites[block.label]:
                downward[site.reg] = site  # last def of each reg survives
            gen[block.label] = frozenset(downward.values())
            kill[block.label] = frozenset().union(
                *(defs_of_reg[reg] for reg in downward)) \
                - gen[block.label] if downward else frozenset()

        solver = IterativeDataflow(labels, preds, gen, kill)
        self.reach_in, self.reach_out = solver.solve()

    def reaching(self, label: str, reg: str) -> FrozenSet[Definition]:
        """Definition sites of ``reg`` that may reach entry of ``label``."""
        return frozenset(d for d in self.reach_in[label] if d.reg == reg)

    def possibly_undefined_reads(self) -> List[Tuple[str, int, str]]:
        """Reads with no reaching definition on some path from the entry.

        Returns ``(block label, instruction index, register)`` triples.
        VIR registers are implicitly zero at machine start, so these are
        lint warnings (latent bugs in generated code), not errors.
        Unreachable blocks are skipped — their empty reach-in would flag
        every read; the unreachable-block lint reports them instead.
        """
        reachable = _reachable_labels(self.fn)
        out: List[Tuple[str, int, str]] = []
        for block in self.fn:
            if block.label not in reachable:
                continue
            defined: Dict[str, bool] = {
                d.reg: True for d in self.reach_in[block.label]}
            for index, instr in enumerate(block.instructions):
                if instr.opcode is Opcode.CALL:
                    for reg in self.universe:
                        defined[reg] = True
                    continue
                for reg in reads(instr):
                    if not defined.get(reg):
                        out.append((block.label, index, reg))
                for reg in writes(instr):
                    defined[reg] = True
        return out


def _reachable_labels(fn: Function) -> Set[str]:
    """Labels reachable from the function entry along successor edges."""
    if fn.entry is None:
        return set()
    seen = {fn.entry}
    stack = [fn.entry]
    while stack:
        label = stack.pop()
        block = fn.blocks.get(label)
        if block is None or not block.is_sealed:
            continue
        for target in block.successor_labels():
            if target in fn.blocks and target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


def reaching_definitions(fn: Function) -> ReachingDefinitions:
    """Solve reaching definitions for ``fn``."""
    return ReachingDefinitions(fn)
