"""Instruction set of the VIR virtual register machine.

VIR is a small, explicit register-machine ISA designed to stand in for the
guest ISA (IA32 in the paper) of a dynamic binary translator.  It is
deliberately block-structured: the only control transfers are the block
terminators ``br`` (two-way conditional), ``jmp`` (unconditional), ``ret``
and ``halt`` — so every basic block has at most two successors and the
"use"/"taken" profiling counters of the paper map directly onto it.

Registers are named strings (conventionally ``r0``..``rN`` for integers and
``f0``..``fN`` for floats, although the machine itself is untyped).  Memory
is a flat word-addressed array.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class Opcode(enum.Enum):
    """Every operation the VIR machine can execute.

    The string value is the assembly mnemonic used by the parser/printer.
    """

    # Data movement
    LI = "li"          # li   rd, imm          rd <- imm
    MOV = "mov"        # mov  rd, rs           rd <- rs
    LOAD = "load"      # load rd, rs, imm      rd <- mem[rs + imm]
    STORE = "store"    # store rs, ra, imm     mem[ra + imm] <- rs

    # Integer arithmetic / logic
    ADD = "add"        # add  rd, rs1, rs2
    SUB = "sub"
    MUL = "mul"
    DIV = "div"        # truncating; divide-by-zero is an ExecutionError
    MOD = "mod"
    NEG = "neg"        # neg  rd, rs
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"

    # Floating point
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"

    # Misc
    NOP = "nop"
    CALL = "call"      # call fname            (non-terminator; returns to next instr)

    # Terminators
    BR = "br"          # br cond, rs1, rs2, taken_label, fall_label
    JMP = "jmp"        # jmp label
    RET = "ret"
    HALT = "halt"


class Cond(enum.Enum):
    """Comparison conditions usable in a ``br`` terminator."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"

    def evaluate(self, lhs, rhs) -> bool:
        """Apply this condition to two operand values."""
        if self is Cond.EQ:
            return lhs == rhs
        if self is Cond.NE:
            return lhs != rhs
        if self is Cond.LT:
            return lhs < rhs
        if self is Cond.LE:
            return lhs <= rhs
        if self is Cond.GT:
            return lhs > rhs
        return lhs >= rhs


#: Opcodes that terminate a basic block.
TERMINATORS = frozenset({Opcode.BR, Opcode.JMP, Opcode.RET, Opcode.HALT})

#: Three-register ALU opcodes: ``op rd, rs1, rs2``.
BINARY_OPS = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
    Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
})

#: Opcodes whose result is a float.
FLOAT_OPS = frozenset({Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV})


@dataclass(frozen=True)
class Instruction:
    """One VIR instruction.

    Operand layout by opcode family:

    * ``LI``: ``regs=(rd,)``, ``imm=value``
    * ``MOV``/``NEG``: ``regs=(rd, rs)``
    * binary ops: ``regs=(rd, rs1, rs2)``
    * ``LOAD``: ``regs=(rd, raddr)``, ``imm=offset``
    * ``STORE``: ``regs=(rs, raddr)``, ``imm=offset``
    * ``CALL``: ``target=function name``
    * ``BR``: ``cond``, ``regs=(rs1, rs2)``, ``target=taken label``,
      ``fallthrough=fall-through label``
    * ``JMP``: ``target=label``
    * ``NOP``/``RET``/``HALT``: no operands
    """

    opcode: Opcode
    regs: Tuple[str, ...] = ()
    imm: float | int | None = None
    cond: Cond | None = None
    target: str | None = None
    fallthrough: str | None = None

    @property
    def is_terminator(self) -> bool:
        """True if this instruction ends a basic block."""
        return self.opcode in TERMINATORS

    def successors(self) -> Tuple[str, ...]:
        """Labels this instruction may transfer control to (terminators only).

        For ``br`` the *taken* label comes first, matching the paper's
        taken/fall-through counter convention.  ``ret``/``halt`` have no
        intra-function successors.
        """
        if self.opcode is Opcode.BR:
            return (self.target, self.fallthrough)  # type: ignore[return-value]
        if self.opcode is Opcode.JMP:
            return (self.target,)  # type: ignore[return-value]
        return ()


# ---------------------------------------------------------------------------
# Convenience constructors — keep call sites short and readable.
# ---------------------------------------------------------------------------

def li(rd: str, value) -> Instruction:
    """``rd <- value`` (load immediate)."""
    return Instruction(Opcode.LI, regs=(rd,), imm=value)


def mov(rd: str, rs: str) -> Instruction:
    """``rd <- rs``."""
    return Instruction(Opcode.MOV, regs=(rd, rs))


def neg(rd: str, rs: str) -> Instruction:
    """``rd <- -rs``."""
    return Instruction(Opcode.NEG, regs=(rd, rs))


def binop(opcode: Opcode, rd: str, rs1: str, rs2: str) -> Instruction:
    """Generic three-register ALU instruction."""
    if opcode not in BINARY_OPS:
        raise ValueError(f"{opcode} is not a binary ALU opcode")
    return Instruction(opcode, regs=(rd, rs1, rs2))


def add(rd: str, rs1: str, rs2: str) -> Instruction:
    """``rd <- rs1 + rs2``."""
    return binop(Opcode.ADD, rd, rs1, rs2)


def sub(rd: str, rs1: str, rs2: str) -> Instruction:
    """``rd <- rs1 - rs2``."""
    return binop(Opcode.SUB, rd, rs1, rs2)


def mul(rd: str, rs1: str, rs2: str) -> Instruction:
    """``rd <- rs1 * rs2``."""
    return binop(Opcode.MUL, rd, rs1, rs2)


def load(rd: str, raddr: str, offset: int = 0) -> Instruction:
    """``rd <- mem[raddr + offset]``."""
    return Instruction(Opcode.LOAD, regs=(rd, raddr), imm=offset)


def store(rs: str, raddr: str, offset: int = 0) -> Instruction:
    """``mem[raddr + offset] <- rs``."""
    return Instruction(Opcode.STORE, regs=(rs, raddr), imm=offset)


def call(function: str) -> Instruction:
    """Call ``function``; execution resumes at the next instruction."""
    return Instruction(Opcode.CALL, target=function)


def br(cond: Cond, rs1: str, rs2: str, taken: str, fall: str) -> Instruction:
    """Two-way conditional branch: to ``taken`` if cond holds, else ``fall``."""
    return Instruction(Opcode.BR, regs=(rs1, rs2), cond=cond,
                       target=taken, fallthrough=fall)


def jmp(label: str) -> Instruction:
    """Unconditional jump to ``label``."""
    return Instruction(Opcode.JMP, target=label)


def ret() -> Instruction:
    """Return from the current function."""
    return Instruction(Opcode.RET)


def halt() -> Instruction:
    """Stop the machine."""
    return Instruction(Opcode.HALT)


def nop() -> Instruction:
    """Do nothing (useful as block padding in generated code)."""
    return Instruction(Opcode.NOP)
