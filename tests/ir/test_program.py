"""Unit tests for program/function/block structure."""

import pytest

from repro.ir import (BasicBlock, BlockRef, BuildError, Cond, Function,
                      Opcode, Program)
from repro.ir import instructions as ins


def _block(label, *instructions):
    return BasicBlock(label, list(instructions))


class TestBasicBlock:
    def test_unsealed_block_has_no_terminator(self):
        block = _block("b", ins.nop())
        assert not block.is_sealed
        with pytest.raises(BuildError):
            _ = block.terminator

    def test_sealed_block(self):
        block = _block("b", ins.nop(), ins.halt())
        assert block.is_sealed
        assert block.terminator.opcode.value == "halt"
        assert list(block.body()) == [ins.nop()]

    def test_conditional_branch_detection(self):
        block = _block("b", ins.br(Cond.EQ, "a", "b", "x", "y"))
        assert block.terminator.opcode is Opcode.BR
        assert block.successor_labels() == ("x", "y")

    def test_len(self):
        assert len(_block("b", ins.nop(), ins.halt())) == 2


class TestFunction:
    def test_first_block_is_entry(self):
        fn = Function("f")
        fn.add_block(_block("start", ins.halt()))
        fn.add_block(_block("other", ins.halt()))
        assert fn.entry == "start"
        assert fn.entry_block.label == "start"

    def test_duplicate_label_rejected(self):
        fn = Function("f")
        fn.add_block(_block("b", ins.halt()))
        with pytest.raises(BuildError):
            fn.add_block(_block("b", ins.halt()))

    def test_empty_function_has_no_entry_block(self):
        with pytest.raises(BuildError):
            _ = Function("f").entry_block


class TestProgram:
    def _program(self):
        program = Program()
        main = Function("main")
        main.add_block(_block("entry", ins.jmp("end")))
        main.add_block(_block("end", ins.halt()))
        helper = Function("helper")
        helper.add_block(_block("entry", ins.ret()))
        program.add_function(main)
        program.add_function(helper)
        return program

    def test_block_ids_are_dense_and_ordered(self):
        program = self._program()
        ids = program.block_ids()
        assert ids[BlockRef("main", "entry")] == 0
        assert ids[BlockRef("main", "end")] == 1
        assert ids[BlockRef("helper", "entry")] == 2

    def test_block_table_matches_ids(self):
        program = self._program()
        table = program.block_table()
        for i, (ref, block) in enumerate(table):
            assert program.block_ids()[ref] == i
            assert program.block(ref) is block

    def test_counts(self):
        program = self._program()
        assert program.num_blocks() == 3

    def test_duplicate_function_rejected(self):
        program = self._program()
        with pytest.raises(BuildError):
            program.add_function(Function("main"))

    def test_missing_entry_function(self):
        program = Program(entry="nope")
        with pytest.raises(BuildError):
            _ = program.entry_function

    def test_blockref_accessors(self):
        ref = BlockRef("f", "b")
        assert ref.function == "f"
        assert ref.label == "b"
        assert ref == ("f", "b")

