"""Structural validation of VIR programs.

The validator enforces the invariants every downstream consumer (CFG
construction, interpreter, DBT) relies on:

* the entry function exists and has an entry block;
* every block is non-empty and ends in exactly one terminator, with no
  terminator in the middle;
* every branch/jump target names a block in the same function;
* every ``call`` names a defined function;
* ``br`` has both a taken and a fall-through target and a condition;
* instruction operand shapes match their opcode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from .errors import ValidationError
from .instructions import BINARY_OPS, Instruction, Opcode
from .program import BasicBlock, Function, Program

#: operand count (register tuple length) expected per opcode.
_EXPECTED_REGS = {
    Opcode.LI: 1,
    Opcode.MOV: 2,
    Opcode.NEG: 2,
    Opcode.LOAD: 2,
    Opcode.STORE: 2,
    Opcode.NOP: 0,
    Opcode.CALL: 0,
    Opcode.BR: 2,
    Opcode.JMP: 0,
    Opcode.RET: 0,
    Opcode.HALT: 0,
}


def _check_instruction(instr: Instruction, where: str,
                       errors: List[str]) -> None:
    """Validate one instruction's operand shape."""
    expected = 3 if instr.opcode in BINARY_OPS else _EXPECTED_REGS.get(
        instr.opcode)
    if expected is None:
        errors.append(f"{where}: unknown opcode {instr.opcode}")
        return
    if len(instr.regs) != expected:
        errors.append(
            f"{where}: {instr.opcode.value} expects {expected} register "
            f"operand(s), got {len(instr.regs)}")
    if instr.opcode is Opcode.LI and instr.imm is None:
        errors.append(f"{where}: li requires an immediate")
    if instr.opcode in (Opcode.LOAD, Opcode.STORE) and instr.imm is None:
        errors.append(f"{where}: {instr.opcode.value} requires an offset")
    if instr.opcode is Opcode.BR:
        if instr.cond is None:
            errors.append(f"{where}: br requires a condition")
        if not instr.target or not instr.fallthrough:
            errors.append(f"{where}: br requires taken and fall-through "
                          "targets")
    if instr.opcode is Opcode.JMP and not instr.target:
        errors.append(f"{where}: jmp requires a target")
    if instr.opcode is Opcode.CALL and not instr.target:
        errors.append(f"{where}: call requires a function name")


def _check_block(fn: Function, block: BasicBlock, program: Program,
                 errors: List[str]) -> None:
    """Validate one block: shape, terminator position, targets."""
    where = f"{fn.name}:{block.label}"
    if not block.instructions:
        errors.append(f"{where}: empty block")
        return
    for i, instr in enumerate(block.instructions):
        _check_instruction(instr, f"{where}[{i}]", errors)
        if instr.is_terminator and i != len(block.instructions) - 1:
            errors.append(f"{where}: terminator at position {i} is not last")
        if instr.opcode is Opcode.CALL and instr.target is not None \
                and instr.target not in program.functions:
            errors.append(f"{where}: call to undefined function "
                          f"{instr.target!r}")
    last = block.instructions[-1]
    if not last.is_terminator:
        errors.append(f"{where}: block does not end in a terminator")
        return
    for label in last.successors():
        if label not in fn.blocks:
            errors.append(f"{where}: branch to undefined block {label!r}")


def collect_errors(program: Program) -> List[str]:
    """All structural problems of ``program``, one string each."""
    errors: List[str] = []
    if program.entry not in program.functions:
        errors.append(f"entry function {program.entry!r} is not defined")
    for fn in program:
        if fn.entry is None:
            errors.append(f"function {fn.name!r} has no blocks")
            continue
        for label, block in fn.blocks.items():
            if label != block.label:
                # Dicts make true duplicate labels unrepresentable, but a
                # hand-built (or mutated) program can still alias one
                # block under a second key — the "duplicate label" failure
                # mode that survives construction.
                errors.append(
                    f"{fn.name}: block keyed {label!r} is labelled "
                    f"{block.label!r} (mislabelled/duplicated block)")
        for block in fn:
            _check_block(fn, block, program, errors)
    return errors


@dataclass
class ProgramDiagnostics:
    """Structured validation outcome: errors plus advisory warnings.

    Both lists hold ``(where, message)`` pairs; ``errors`` are the
    :func:`validate_program` rules (plus mislabelled blocks), while
    ``warnings`` flag legal-but-suspicious shapes — currently blocks
    unreachable from their function's entry.
    """

    errors: List[Tuple[str, str]] = field(default_factory=list)
    warnings: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def reachable_block_labels(fn: Function) -> Set[str]:
    """Labels reachable from the function entry along terminator edges."""
    if fn.entry is None or fn.entry not in fn.blocks:
        return set()
    seen = {fn.entry}
    stack = [fn.entry]
    while stack:
        block = fn.blocks.get(stack.pop())
        if block is None or not block.is_sealed:
            continue
        for target in block.successor_labels():
            if target in fn.blocks and target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


def program_diagnostics(program: Program) -> ProgramDiagnostics:
    """Validate ``program`` without raising, surfacing warnings too.

    Errors are everything :func:`validate_program` would raise for;
    warnings cover unreachable blocks (dead code a generator left
    behind — harmless to run, but usually a bug upstream).
    """
    diags = ProgramDiagnostics()
    for message in collect_errors(program):
        where, _, rest = message.partition(": ")
        if rest:
            diags.errors.append((where, rest))
        else:
            diags.errors.append(("program", message))
    for fn in program:
        if fn.entry is None:
            continue
        live = reachable_block_labels(fn)
        for block in fn:
            if block.label not in live:
                diags.warnings.append(
                    (f"{fn.name}:{block.label}",
                     "block is unreachable from the function entry"))
    return diags


def validate_program(program: Program) -> None:
    """Validate ``program``, raising :class:`ValidationError` on any problem.

    The exception message lists *all* problems found, one per line, so a
    generated program can be fixed in a single round trip.
    """
    errors = collect_errors(program)
    if errors:
        raise ValidationError("\n".join(errors))
