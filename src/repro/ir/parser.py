"""Textual assembler for VIR programs.

Grammar (line oriented; ``#`` starts a comment)::

    program   := function*
    function  := "func" NAME ":" block*
    block     := LABEL ":" instruction*
    instruction := MNEMONIC operand ("," operand)*

See :mod:`repro.ir.printer` for the exact rendering this parser inverts.
"""

from __future__ import annotations

import re
from typing import List, Optional

from . import instructions as ins
from .errors import BuildError, ParseError
from .instructions import BINARY_OPS, Cond, Instruction, Opcode
from .program import BasicBlock, Function, Program
from .validate import validate_program

_FUNC_RE = re.compile(r"^func\s+([A-Za-z_]\w*)\s*:$")
_LABEL_RE = re.compile(r"^([A-Za-z_.]\w*)\s*:$")

_MNEMONICS = {op.value: op for op in Opcode}
_CONDS = {c.value: c for c in Cond}


def _parse_number(token: str, line: int):
    """Parse an integer or float immediate."""
    try:
        if any(ch in token for ch in ".eE") and not token.lstrip("+-").isdigit():
            return float(token)
        return int(token, 0)
    except ValueError:
        raise ParseError(f"bad immediate {token!r}", line) from None


def _operands(rest: str) -> List[str]:
    """Split the operand field on commas, trimming whitespace."""
    rest = rest.strip()
    if not rest:
        return []
    return [tok.strip() for tok in rest.split(",")]


def _parse_instruction(mnemonic: str, rest: str, line: int) -> Instruction:
    """Parse one instruction given its mnemonic and operand text."""
    opcode = _MNEMONICS.get(mnemonic)
    if opcode is None:
        raise ParseError(f"unknown mnemonic {mnemonic!r}", line)
    ops = _operands(rest)

    def need(n: int) -> None:
        if len(ops) != n:
            raise ParseError(
                f"{mnemonic} expects {n} operand(s), got {len(ops)}", line)

    if opcode is Opcode.LI:
        need(2)
        return ins.li(ops[0], _parse_number(ops[1], line))
    if opcode is Opcode.MOV:
        need(2)
        return ins.mov(ops[0], ops[1])
    if opcode is Opcode.NEG:
        need(2)
        return ins.neg(ops[0], ops[1])
    if opcode in BINARY_OPS:
        need(3)
        return ins.binop(opcode, ops[0], ops[1], ops[2])
    if opcode in (Opcode.LOAD, Opcode.STORE):
        need(3)
        offset = _parse_number(ops[2], line)
        if not isinstance(offset, int):
            raise ParseError("memory offset must be an integer", line)
        if opcode is Opcode.LOAD:
            return ins.load(ops[0], ops[1], offset)
        return ins.store(ops[0], ops[1], offset)
    if opcode is Opcode.CALL:
        need(1)
        return ins.call(ops[0])
    if opcode is Opcode.BR:
        need(5)
        cond = _CONDS.get(ops[0])
        if cond is None:
            raise ParseError(f"unknown condition {ops[0]!r}", line)
        return ins.br(cond, ops[1], ops[2], ops[3], ops[4])
    if opcode is Opcode.JMP:
        need(1)
        return ins.jmp(ops[0])
    need(0)
    if opcode is Opcode.RET:
        return ins.ret()
    if opcode is Opcode.HALT:
        return ins.halt()
    return ins.nop()


def parse_program(text: str, entry: str = "main",
                  validate: bool = True) -> Program:
    """Parse assembly ``text`` into a :class:`Program`.

    Args:
        text: the assembly source.
        entry: name of the program's entry function.
        validate: run the structural validator on the result.

    Raises:
        ParseError: on syntax errors (with the offending line number).
        ValidationError: if ``validate`` and the program is malformed.
    """
    program = Program(entry=entry)
    current_fn: Optional[Function] = None
    current_block: Optional[BasicBlock] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        m = _FUNC_RE.match(line)
        if m:
            try:
                current_fn = program.add_function(Function(m.group(1)))
            except BuildError:
                raise ParseError(
                    f"duplicate function {m.group(1)!r}", lineno) from None
            current_block = None
            continue

        m = _LABEL_RE.match(line)
        if m:
            if current_fn is None:
                raise ParseError("block label outside any function", lineno)
            try:
                current_block = current_fn.add_block(BasicBlock(m.group(1)))
            except BuildError:
                raise ParseError(
                    f"duplicate block label {m.group(1)!r} in function "
                    f"{current_fn.name!r}", lineno) from None
            continue

        if current_block is None:
            raise ParseError("instruction outside any block", lineno)
        parts = line.split(None, 1)
        mnemonic = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        current_block.instructions.append(
            _parse_instruction(mnemonic, rest, lineno))

    if validate:
        validate_program(program)
    return program
