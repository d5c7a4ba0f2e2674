"""Interpreter semantics tests: arithmetic, control flow, faults, events."""

import pytest

from repro.interp import Interpreter
from repro.ir import Cond, ExecutionError, Opcode, ProgramBuilder, \
    parse_program

from ..reference import RecordingListener


def _run(source, **kwargs):
    program = parse_program(source)
    interp = Interpreter(program, **kwargs)
    result = interp.run()
    return interp, result


class TestArithmetic:
    def test_integer_ops(self):
        interp, _ = _run("""
func main:
 b:
  li a, 7
  li b, 3
  add s, a, b
  sub d, a, b
  mul m, a, b
  div q, a, b
  mod r, a, b
  halt
""")
        state = interp.state
        assert state.read("s") == 10
        assert state.read("d") == 4
        assert state.read("m") == 21
        assert state.read("q") == 2
        assert state.read("r") == 1

    def test_bitwise_ops(self):
        interp, _ = _run("""
func main:
 b:
  li a, 12
  li b, 10
  and x, a, b
  or y, a, b
  xor z, a, b
  li one, 1
  shl l, a, one
  shr r, a, one
  halt
""")
        state = interp.state
        assert state.read("x") == 8
        assert state.read("y") == 14
        assert state.read("z") == 6
        assert state.read("l") == 24
        assert state.read("r") == 6

    def test_float_ops(self):
        interp, _ = _run("""
func main:
 b:
  li a, 1.5
  li b, 0.5
  fadd s, a, b
  fsub d, a, b
  fmul m, a, b
  fdiv q, a, b
  halt
""")
        state = interp.state
        assert state.read("s") == 2.0
        assert state.read("d") == 1.0
        assert state.read("m") == 0.75
        assert state.read("q") == 3.0

    def test_neg_and_mov(self):
        interp, _ = _run(
            "func main:\n b:\n  li a, 5\n  neg n, a\n  mov c, n\n  halt\n")
        assert interp.state.read("n") == -5
        assert interp.state.read("c") == -5

    def test_division_by_zero_faults(self):
        with pytest.raises(ExecutionError, match="division by zero"):
            _run("func main:\n b:\n  li a, 1\n  div q, a, zero\n  halt\n")

    def test_float_division_by_zero_faults(self):
        with pytest.raises(ExecutionError, match="division by zero"):
            _run("func main:\n b:\n  li a, 1.0\n  fdiv q, a, zero\n  halt\n")


class TestControlFlow:
    def test_loop_computes_sum(self, loop_program):
        interp = Interpreter(loop_program)
        result = interp.run()
        assert interp.state.read("acc") == 5 + 4 + 3 + 2 + 1
        assert result.halted

    def test_call_and_return(self):
        interp, result = _run("""
func main:
 entry:
  li x, 1
  call double
  call double
  halt

func double:
 entry:
  add x, x, x
  ret
""")
        assert interp.state.read("x") == 4
        assert result.halted

    def test_return_from_entry_ends_run(self):
        _, result = _run("func main:\n b:\n  ret\n")
        assert not result.halted
        assert result.blocks_executed == 1

    def test_memory_instructions(self):
        interp, _ = _run("""
func main:
 b:
  li base, 100
  li v, 7
  store v, base, 5
  load out, base, 5
  halt
""")
        assert interp.state.read("out") == 7

    def test_step_limit_stops_infinite_loop(self):
        with pytest.raises(ExecutionError, match="step limit"):
            _run("func main:\n b:\n  jmp b\n", step_limit=1000)

    def test_recursion_overflows_call_stack(self):
        source = "func main:\n b:\n  call main\n  halt\n"
        program = parse_program(source)
        with pytest.raises(ExecutionError, match="call stack"):
            Interpreter(program).run()


class TestEvents:
    def test_block_and_branch_events(self, loop_program):
        recorder = RecordingListener()
        interp = Interpreter(loop_program, listener=recorder)
        interp.run()
        loop_id = interp.block_id("main", "loop")
        # 5 loop iterations: 4 taken + 1 not taken.
        branch_outcomes = [t for b, t in recorder.branches if b == loop_id]
        assert branch_outcomes == [True] * 4 + [False]
        # blocks: entry, loop x5, done
        assert recorder.blocks[0] == interp.block_id("main", "entry")
        assert recorder.blocks.count(loop_id) == 5

    def test_blocks_executed_matches_events(self, loop_program):
        recorder = RecordingListener()
        result = Interpreter(loop_program, listener=recorder).run()
        assert result.blocks_executed == len(recorder.blocks)
