"""The VIR interpreter — the "interpret or quickly translate" engine.

This is the instruction-accurate execution engine.  It models the *first*
phase of a two-phase translator: every block execution and branch outcome is
reported to an attached :class:`~repro.interp.events.ExecutionListener`, so
a profiler sitting on the event stream sees exactly the use/taken stream
IA32EL's instrumented quick translation would produce.

For the large synthetic workloads the study runs at block granularity
instead (see :mod:`repro.stochastic`); the two engines emit the identical
event protocol, so everything downstream is engine-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..ir.errors import ExecutionError
from ..ir.instructions import Opcode
from ..ir.program import BlockRef, Program
from ..obs.registry import inc
from .events import ExecutionListener, NullListener
from .machine import Frame, MachineState

#: Default dynamic-instruction budget; exceeding it raises ExecutionError.
DEFAULT_STEP_LIMIT = 10_000_000


@dataclass
class RunResult:
    """Summary of one program run.

    Attributes:
        steps: dynamic instructions executed.
        blocks_executed: dynamic basic-block count (total *use*).
        halted: True if the run ended at a ``halt`` (vs. returning from the
            entry function).
    """

    steps: int
    blocks_executed: int
    halted: bool


class Interpreter:
    """Executes a VIR :class:`Program` with block-level instrumentation."""

    def __init__(self, program: Program,
                 listener: Optional[ExecutionListener] = None,
                 state: Optional[MachineState] = None,
                 step_limit: int = DEFAULT_STEP_LIMIT):
        self.program = program
        self.listener = listener or NullListener()
        self.state = state or MachineState()
        self.step_limit = step_limit
        self._block_ids: Dict[BlockRef, int] = program.block_ids()

    def block_id(self, function: str, label: str) -> int:
        """Dense id of a block, as reported in execution events."""
        return self._block_ids[BlockRef(function, label)]

    def run(self) -> RunResult:
        """Run from the program entry until ``halt``/entry return.

        Raises:
            ExecutionError: on runtime faults or when the step budget is
                exceeded (the usual symptom of a diverging generated
                program).
        """
        program = self.program
        state = self.state
        listener = self.listener

        fn = program.entry_function
        fn_name = fn.name
        block = fn.entry_block
        instr_index = 0
        steps = 0
        blocks_executed = 0
        branches_resolved = 0
        halted = False

        listener.on_block(self._block_ids[BlockRef(fn_name, block.label)])
        blocks_executed += 1

        while True:
            if instr_index >= len(block.instructions):
                raise ExecutionError(
                    f"fell off the end of block {fn_name}:{block.label}")
            instr = block.instructions[instr_index]
            steps += 1
            if steps > self.step_limit:
                raise ExecutionError(
                    f"step limit of {self.step_limit} exceeded")
            op = instr.opcode

            # -- straight-line instructions --------------------------------
            if op is Opcode.LI:
                state.write(instr.regs[0], instr.imm)
            elif op is Opcode.MOV:
                state.write(instr.regs[0], state.read(instr.regs[1]))
            elif op is Opcode.NEG:
                state.write(instr.regs[0], -state.read(instr.regs[1]))
            elif op is Opcode.ADD:
                state.write(instr.regs[0],
                            state.read(instr.regs[1]) +
                            state.read(instr.regs[2]))
            elif op is Opcode.SUB:
                state.write(instr.regs[0],
                            state.read(instr.regs[1]) -
                            state.read(instr.regs[2]))
            elif op is Opcode.MUL:
                state.write(instr.regs[0],
                            state.read(instr.regs[1]) *
                            state.read(instr.regs[2]))
            elif op in (Opcode.DIV, Opcode.MOD):
                rhs = state.read(instr.regs[2])
                if rhs == 0:
                    raise ExecutionError(
                        f"division by zero in {fn_name}:{block.label}")
                lhs = state.read(instr.regs[1])
                if op is Opcode.DIV:
                    value = int(lhs / rhs) if isinstance(lhs, int) and \
                        isinstance(rhs, int) else lhs / rhs
                else:
                    value = lhs - rhs * int(lhs / rhs)
                state.write(instr.regs[0], value)
            elif op is Opcode.AND:
                state.write(instr.regs[0],
                            int(state.read(instr.regs[1])) &
                            int(state.read(instr.regs[2])))
            elif op is Opcode.OR:
                state.write(instr.regs[0],
                            int(state.read(instr.regs[1])) |
                            int(state.read(instr.regs[2])))
            elif op is Opcode.XOR:
                state.write(instr.regs[0],
                            int(state.read(instr.regs[1])) ^
                            int(state.read(instr.regs[2])))
            elif op is Opcode.SHL:
                state.write(instr.regs[0],
                            int(state.read(instr.regs[1])) <<
                            (int(state.read(instr.regs[2])) & 63))
            elif op is Opcode.SHR:
                state.write(instr.regs[0],
                            int(state.read(instr.regs[1])) >>
                            (int(state.read(instr.regs[2])) & 63))
            elif op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV):
                lhs = float(state.read(instr.regs[1]))
                rhs = float(state.read(instr.regs[2]))
                if op is Opcode.FADD:
                    value = lhs + rhs
                elif op is Opcode.FSUB:
                    value = lhs - rhs
                elif op is Opcode.FMUL:
                    value = lhs * rhs
                else:
                    if rhs == 0.0:
                        raise ExecutionError(
                            f"float division by zero in "
                            f"{fn_name}:{block.label}")
                    value = lhs / rhs
                state.write(instr.regs[0], value)
            elif op is Opcode.LOAD:
                address = int(state.read(instr.regs[1])) + int(instr.imm)
                state.write(instr.regs[0], state.load(address))
            elif op is Opcode.STORE:
                address = int(state.read(instr.regs[1])) + int(instr.imm)
                state.store(address, state.read(instr.regs[0]))
            elif op is Opcode.NOP:
                pass
            elif op is Opcode.CALL:
                state.push_frame(Frame(fn_name, block.label, instr_index + 1))
                callee = program.functions[instr.target]  # validated
                fn_name = callee.name
                block = callee.entry_block
                instr_index = 0
                listener.on_block(
                    self._block_ids[BlockRef(fn_name, block.label)])
                blocks_executed += 1
                continue

            # -- terminators ------------------------------------------------
            elif op is Opcode.BR:
                assert instr.cond is not None
                taken = instr.cond.evaluate(state.read(instr.regs[0]),
                                            state.read(instr.regs[1]))
                bid = self._block_ids[BlockRef(fn_name, block.label)]
                listener.on_branch(bid, taken)
                branches_resolved += 1
                target = instr.target if taken else instr.fallthrough
                block = program.functions[fn_name].blocks[target]
                instr_index = 0
                listener.on_block(
                    self._block_ids[BlockRef(fn_name, block.label)])
                blocks_executed += 1
                continue
            elif op is Opcode.JMP:
                block = program.functions[fn_name].blocks[instr.target]
                instr_index = 0
                listener.on_block(
                    self._block_ids[BlockRef(fn_name, block.label)])
                blocks_executed += 1
                continue
            elif op is Opcode.RET:
                frame = state.pop_frame()
                if frame is None:
                    break  # returned from the entry function
                fn_name = frame.function
                block = program.functions[fn_name].blocks[frame.block]
                instr_index = frame.instr_index
                continue
            elif op is Opcode.HALT:
                halted = True
                break
            else:  # pragma: no cover - validator prevents this
                raise ExecutionError(f"unhandled opcode {op}")

            instr_index += 1

        inc("interp.runs")
        inc("interp.steps", steps)
        inc("interp.blocks_executed", blocks_executed)
        inc("interp.events_emitted", blocks_executed + branches_resolved)
        return RunResult(steps=steps, blocks_executed=blocks_executed,
                         halted=halted)

