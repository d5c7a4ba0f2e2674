"""Fluent builders for constructing VIR programs in Python code.

Example::

    pb = ProgramBuilder()
    with pb.function("main") as fb:
        fb.block("entry").li("r0", 0).li("r1", 10).jmp("loop")
        (fb.block("loop")
           .add("r0", "r0", "r1")
           .li("r2", 1).sub("r1", "r1", "r2")
           .br(Cond.GT, "r1", "zero", taken="loop", fall="done"))
        fb.block("done").halt()
    program = pb.build()

The builder validates as it goes (no instructions after a terminator, no
duplicate labels) and :meth:`ProgramBuilder.build` runs the full structural
validator before returning the program.
"""

from __future__ import annotations

from typing import List

from . import instructions as ins
from .errors import BuildError
from .instructions import Cond, Instruction, Opcode
from .program import BasicBlock, Function, Program


class BlockBuilder:
    """Builds one basic block; every emit method returns ``self`` to chain."""

    def __init__(self, function: "FunctionBuilder", label: str):
        self._function = function
        self._block = BasicBlock(label)

    @property
    def label(self) -> str:
        """The label of the block under construction."""
        return self._block.label

    def emit(self, instruction: Instruction) -> "BlockBuilder":
        """Append an already-constructed instruction."""
        if self._block.is_sealed:
            raise BuildError(
                f"block {self.label!r} already ends in a terminator")
        self._block.instructions.append(instruction)
        return self

    # -- straight-line instructions -----------------------------------------

    def li(self, rd: str, value) -> "BlockBuilder":
        return self.emit(ins.li(rd, value))

    def mov(self, rd: str, rs: str) -> "BlockBuilder":
        return self.emit(ins.mov(rd, rs))

    def neg(self, rd: str, rs: str) -> "BlockBuilder":
        return self.emit(ins.neg(rd, rs))

    def add(self, rd: str, rs1: str, rs2: str) -> "BlockBuilder":
        return self.emit(ins.add(rd, rs1, rs2))

    def sub(self, rd: str, rs1: str, rs2: str) -> "BlockBuilder":
        return self.emit(ins.sub(rd, rs1, rs2))

    def mul(self, rd: str, rs1: str, rs2: str) -> "BlockBuilder":
        return self.emit(ins.mul(rd, rs1, rs2))

    def div(self, rd: str, rs1: str, rs2: str) -> "BlockBuilder":
        return self.emit(ins.binop(Opcode.DIV, rd, rs1, rs2))

    def mod(self, rd: str, rs1: str, rs2: str) -> "BlockBuilder":
        return self.emit(ins.binop(Opcode.MOD, rd, rs1, rs2))

    def op(self, opcode: Opcode, rd: str, rs1: str, rs2: str) -> "BlockBuilder":
        """Emit any binary ALU instruction by opcode."""
        return self.emit(ins.binop(opcode, rd, rs1, rs2))

    def load(self, rd: str, raddr: str, offset: int = 0) -> "BlockBuilder":
        return self.emit(ins.load(rd, raddr, offset))

    def store(self, rs: str, raddr: str, offset: int = 0) -> "BlockBuilder":
        return self.emit(ins.store(rs, raddr, offset))

    def call(self, function: str) -> "BlockBuilder":
        return self.emit(ins.call(function))

    def nop(self, count: int = 1) -> "BlockBuilder":
        """Emit ``count`` no-ops (padding to model block size/cost)."""
        for _ in range(count):
            self.emit(ins.nop())
        return self

    # -- terminators ---------------------------------------------------------

    def br(self, cond: Cond, rs1: str, rs2: str, *,
           taken: str, fall: str) -> "BlockBuilder":
        """Seal with a conditional branch; ``taken`` is the profiled edge."""
        return self.emit(ins.br(cond, rs1, rs2, taken, fall))

    def jmp(self, label: str) -> "BlockBuilder":
        """Seal with an unconditional jump."""
        return self.emit(ins.jmp(label))

    def ret(self) -> "BlockBuilder":
        """Seal with a function return."""
        return self.emit(ins.ret())

    def halt(self) -> "BlockBuilder":
        """Seal with a machine halt."""
        return self.emit(ins.halt())


class FunctionBuilder:
    """Builds one function; usable as a context manager for readability."""

    def __init__(self, program: "ProgramBuilder", name: str):
        self._program = program
        self._function = Function(name)
        self._open_blocks: List[BlockBuilder] = []

    @property
    def name(self) -> str:
        """Name of the function under construction."""
        return self._function.name

    def block(self, label: str) -> BlockBuilder:
        """Start a new block; the first block created is the entry."""
        builder = BlockBuilder(self, label)
        self._function.add_block(builder._block)
        self._open_blocks.append(builder)
        return builder

    def finish(self) -> Function:
        """Seal the function, checking every block has a terminator."""
        for bb in self._open_blocks:
            if not bb._block.is_sealed:
                raise BuildError(
                    f"block {bb.label!r} in function {self.name!r} "
                    "was never sealed with a terminator")
        return self._function

    def __enter__(self) -> "FunctionBuilder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finish()


class ProgramBuilder:
    """Builds a whole program out of :class:`FunctionBuilder`\\ s."""

    def __init__(self, entry: str = "main"):
        self._program = Program(entry=entry)
        self._functions: List[FunctionBuilder] = []

    def function(self, name: str) -> FunctionBuilder:
        """Start a new function."""
        fb = FunctionBuilder(self, name)
        self._program.add_function(fb._function)
        self._functions.append(fb)
        return fb

    def build(self, validate: bool = True) -> Program:
        """Finish all functions and return the program.

        With ``validate=True`` (the default) the structural validator from
        :mod:`repro.ir.validate` runs and raises on any malformed shape.
        """
        for fb in self._functions:
            fb.finish()
        if validate:
            from .validate import validate_program
            validate_program(self._program)
        return self._program
