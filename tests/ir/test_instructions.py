"""Unit tests for the VIR instruction set."""

import pytest

from repro.ir import BINARY_OPS, TERMINATORS, Cond, Opcode
from repro.ir import instructions as ins


class TestCond:
    @pytest.mark.parametrize("cond,lhs,rhs,expected", [
        (Cond.EQ, 3, 3, True), (Cond.EQ, 3, 4, False),
        (Cond.NE, 3, 4, True), (Cond.NE, 3, 3, False),
        (Cond.LT, 2, 3, True), (Cond.LT, 3, 3, False),
        (Cond.LE, 3, 3, True), (Cond.LE, 4, 3, False),
        (Cond.GT, 4, 3, True), (Cond.GT, 3, 3, False),
        (Cond.GE, 3, 3, True), (Cond.GE, 2, 3, False),
    ])
    def test_evaluate(self, cond, lhs, rhs, expected):
        assert cond.evaluate(lhs, rhs) is expected

    def test_float_comparison(self):
        assert Cond.LT.evaluate(1.5, 2.5)
        assert not Cond.GE.evaluate(1.5, 2.5)


class TestInstructionShape:
    def test_terminator_set(self):
        assert Opcode.BR in TERMINATORS
        assert Opcode.JMP in TERMINATORS
        assert Opcode.RET in TERMINATORS
        assert Opcode.HALT in TERMINATORS
        assert Opcode.ADD not in TERMINATORS
        assert Opcode.CALL not in TERMINATORS

    def test_li(self):
        instr = ins.li("r0", 42)
        assert instr.opcode is Opcode.LI
        assert instr.regs == ("r0",)
        assert instr.imm == 42
        assert not instr.is_terminator

    def test_binop_rejects_non_alu(self):
        with pytest.raises(ValueError):
            ins.binop(Opcode.LI, "a", "b", "c")

    def test_all_binary_ops_construct(self):
        for opcode in BINARY_OPS:
            instr = ins.binop(opcode, "d", "a", "b")
            assert instr.regs == ("d", "a", "b")

    def test_branch_successors_taken_first(self):
        instr = ins.br(Cond.EQ, "a", "b", "yes", "no")
        assert instr.successors() == ("yes", "no")
        assert instr.is_terminator

    def test_jmp_successors(self):
        assert ins.jmp("target").successors() == ("target",)

    def test_ret_halt_have_no_successors(self):
        assert ins.ret().successors() == ()
        assert ins.halt().successors() == ()

    def test_non_terminator_successors_empty(self):
        assert ins.add("a", "b", "c").successors() == ()

    def test_load_store_layout(self):
        load = ins.load("rd", "ra", 4)
        assert load.regs == ("rd", "ra") and load.imm == 4
        store = ins.store("rs", "ra", 8)
        assert store.regs == ("rs", "ra") and store.imm == 8

    def test_call_carries_function_name(self):
        assert ins.call("helper").target == "helper"

    def test_instructions_are_immutable(self):
        instr = ins.li("r0", 1)
        with pytest.raises(AttributeError):
            instr.imm = 2  # type: ignore[misc]
