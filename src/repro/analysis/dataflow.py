"""The possibly-undefined-read lint over VIR functions.

The verifier (:mod:`repro.analysis.verify`) asks one dataflow question:
which register reads does no definition of the register reach?  That
reduces to a forward union fixpoint over *sets of defined registers*
on the intra-function label graph.  VIR has no SSA form and no function
parameters; ``call`` instructions are modelled conservatively (the
callee may write every register in the function).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..ir.instructions import BINARY_OPS, Instruction, Opcode
from ..ir.program import Function
from ..ir.validate import reachable_block_labels


def reads(instr: Instruction) -> Tuple[str, ...]:
    """Registers the instruction reads, in operand order."""
    op = instr.opcode
    if op is Opcode.LI or op is Opcode.NOP or op is Opcode.JMP or \
            op is Opcode.RET or op is Opcode.HALT or op is Opcode.CALL:
        return ()
    if op in (Opcode.MOV, Opcode.NEG):
        return (instr.regs[1],)
    if op in BINARY_OPS:
        return (instr.regs[1], instr.regs[2])
    if op is Opcode.LOAD:
        return (instr.regs[1],)              # address register
    if op is Opcode.STORE:
        return (instr.regs[0], instr.regs[1])  # value + address
    if op is Opcode.BR:
        return (instr.regs[0], instr.regs[1])
    raise AssertionError(f"unhandled opcode {op}")  # pragma: no cover


def writes(instr: Instruction) -> Tuple[str, ...]:
    """Registers the instruction defines."""
    op = instr.opcode
    if op in (Opcode.LI, Opcode.MOV, Opcode.NEG, Opcode.LOAD) or \
            op in BINARY_OPS:
        return (instr.regs[0],)
    return ()


def possibly_undefined_reads(fn: Function) -> List[Tuple[str, int, str]]:
    """Reads with no reaching definition of their register.

    Returns ``(block label, instruction index, register)`` triples in
    block and instruction order.  A register is defined at block entry
    when a write to it reaches the block along some edge of the label
    graph: block out = block in ∪ the block's writes, and every register
    after a ``call``.  VIR registers are implicitly zero at machine
    start, so these are lint warnings (latent bugs in generated code),
    not errors.  Unreachable blocks are skipped — their reads are the
    unreachable-block lint's finding — but their writes still flow
    along their out-edges.
    """
    universe = frozenset(reg for block in fn for instr in block.instructions
                         for reg in instr.regs)
    preds: Dict[str, List[str]] = {block.label: [] for block in fn}
    written: Dict[str, FrozenSet[str]] = {}
    for block in fn:
        code = block.instructions
        written[block.label] = universe if any(
            instr.opcode is Opcode.CALL for instr in code) else frozenset(
            reg for instr in code for reg in writes(instr))
        if block.is_sealed:
            for target in block.successor_labels():
                if target in preds:
                    preds[target].append(block.label)
    defined_in = {label: frozenset() for label in preds}
    changed = True
    while changed:
        changed = False
        for label, sources in preds.items():
            new = frozenset().union(
                *(defined_in[p] | written[p] for p in sources))
            if new != defined_in[label]:
                defined_in[label], changed = new, True

    reachable = reachable_block_labels(fn)
    out: List[Tuple[str, int, str]] = []
    for block in fn:
        if block.label not in reachable:
            continue
        defined = set(defined_in[block.label])
        for index, instr in enumerate(block.instructions):
            if instr.opcode is Opcode.CALL:
                defined = set(universe)
            out.extend((block.label, index, reg) for reg in reads(instr)
                       if reg not in defined)
            defined.update(writes(instr))
    return out

