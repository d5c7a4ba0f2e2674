"""Dataflow facts about VIR instructions: reads, writes, side effects.

The optimisation passes need three facts per instruction — which
registers it reads, which it writes, and whether it has effects beyond
its register result (memory, calls, control) — all derivable from the
operand layout documented in :mod:`repro.ir.instructions`.
"""

from __future__ import annotations

from typing import Tuple

from ..ir.instructions import BINARY_OPS, Instruction, Opcode

#: Opcodes whose effects are not captured by their register writes.
SIDE_EFFECT_OPS = frozenset({
    Opcode.STORE, Opcode.CALL, Opcode.BR, Opcode.JMP, Opcode.RET,
    Opcode.HALT,
})

#: Opcodes that touch memory (for memory dependence edges).
MEMORY_OPS = frozenset({Opcode.LOAD, Opcode.STORE})


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


def has_side_effects(instr: Instruction) -> bool:
    """True if removing the instruction could change observable behaviour
    beyond its register result."""
    return instr.opcode in SIDE_EFFECT_OPS


def touches_memory(instr: Instruction) -> bool:
    """True for loads and stores (conservative memory dependences)."""
    return instr.opcode in MEMORY_OPS


def is_straightline(instr: Instruction) -> bool:
    """True if the instruction can appear inside an optimisable region
    body (no control transfer)."""
    return instr.opcode not in (Opcode.BR, Opcode.JMP, Opcode.RET,
                                Opcode.HALT)
