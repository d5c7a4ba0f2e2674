"""Dataflow framework: reaching definitions and the worklist engine."""

from repro.analysis import (Definition, IterativeDataflow,
                            ReachingDefinitions, reaching_definitions)
from repro.analysis.dataflow import function_flow, register_universe
from repro.ir import Cond, ProgramBuilder


def _diamond_program():
    """x defined differently on each arm, read at the join."""
    pb = ProgramBuilder()
    with pb.function("main") as fb:
        (fb.block("entry")
           .li("c", 1).li("zero", 0)
           .br(Cond.GT, "c", "zero", taken="then", fall="else_"))
        fb.block("then").li("x", 10).jmp("join")
        fb.block("else_").li("x", 20).jmp("join")
        fb.block("join").mov("y", "x").halt()
    return pb.build()


def _call_program():
    """main reads a register only the (opaque) callee could define."""
    pb = ProgramBuilder()
    with pb.function("main") as fb:
        fb.block("entry").call("helper").mov("out", "mystery").halt()
    with pb.function("helper") as fb:
        fb.block("entry").li("mystery", 42).ret()
    return pb.build()


class TestReachingDefinitions:
    def test_both_arm_definitions_reach_the_join(self):
        program = _diamond_program()
        rd = ReachingDefinitions(program.functions["main"])
        sites = rd.reaching("join", "x")
        assert {(d.block, d.reg) for d in sites} == \
            {("then", "x"), ("else_", "x")}

    def test_entry_definitions_killed_by_redefinition(self):
        pb = ProgramBuilder()
        with pb.function("main") as fb:
            fb.block("entry").li("a", 1).jmp("next")
            fb.block("next").li("a", 2).jmp("last")
            fb.block("last").mov("b", "a").halt()
        program = pb.build()
        rd = reaching_definitions(program.functions["main"])
        sites = rd.reaching("last", "a")
        assert {d.block for d in sites} == {"next"}

    def test_loop_carried_definition_reaches_header(self, loop_program):
        rd = ReachingDefinitions(loop_program.functions["main"])
        blocks = {d.block for d in rd.reaching("loop", "acc")}
        # both the initial li and the in-loop add reach the loop header
        assert blocks == {"entry", "loop"}

    def test_undefined_read_is_reported(self):
        pb = ProgramBuilder()
        with pb.function("main") as fb:
            fb.block("entry").mov("a", "never_set").halt()
        rd = ReachingDefinitions(pb.build().functions["main"])
        assert ("entry", 0, "never_set") in rd.possibly_undefined_reads()

    def test_defined_reads_are_clean(self, loop_program):
        rd = ReachingDefinitions(loop_program.functions["main"])
        assert rd.possibly_undefined_reads() == []

    def test_call_defines_everything_conservatively(self):
        program = _call_program()
        rd = ReachingDefinitions(program.functions["main"])
        # 'mystery' is read right after the call: the call may have
        # defined it, so the lint must stay quiet.
        assert rd.possibly_undefined_reads() == []

    def test_unreachable_blocks_are_skipped(self):
        pb = ProgramBuilder()
        with pb.function("main") as fb:
            fb.block("entry").li("a", 1).halt()
            fb.block("orphan").mov("b", "a").halt()
        rd = ReachingDefinitions(pb.build().functions["main"])
        # the orphan's read of 'a' is not flagged here (the
        # unreachable-block lint owns that finding)
        assert rd.possibly_undefined_reads() == []

    def test_all_definitions_cover_every_write(self, loop_program):
        rd = ReachingDefinitions(loop_program.functions["main"])
        regs = {d.reg for d in rd.all_definitions}
        assert regs == {"acc", "i", "zero", "one"}
        assert rd.universe == frozenset({"acc", "i", "zero", "one"})


class TestIterativeDataflow:
    def test_forward_union_meet(self):
        # a -> b -> c, each block generates its own label as a fact
        labels = ["a", "b", "c"]
        preds = {"a": [], "b": ["a"], "c": ["b"]}
        gen = {lb: frozenset({lb}) for lb in labels}
        kill = {lb: frozenset() for lb in labels}
        in_map, out_map = IterativeDataflow(labels, preds, gen, kill).solve()
        assert in_map["c"] == frozenset({"a", "b"})
        assert out_map["c"] == frozenset({"a", "b", "c"})

    def test_kill_removes_incoming_facts(self):
        labels = ["a", "b"]
        preds = {"a": [], "b": ["a"]}
        gen = {"a": frozenset({"x"}), "b": frozenset({"y"})}
        kill = {"a": frozenset(), "b": frozenset({"x"})}
        _, out_map = IterativeDataflow(labels, preds, gen, kill).solve()
        assert out_map["b"] == frozenset({"y"})

    def test_cycle_reaches_fixed_point(self):
        labels = ["a", "b"]
        preds = {"a": ["b"], "b": ["a"]}
        gen = {"a": frozenset({"a"}), "b": frozenset()}
        kill = {lb: frozenset() for lb in labels}
        in_map, out_map = IterativeDataflow(labels, preds, gen, kill).solve()
        assert out_map["b"] == frozenset({"a"})
        assert in_map["a"] == frozenset({"a"})


def test_function_flow_keeps_taken_first(loop_program):
    labels, succs, preds = function_flow(loop_program.functions["main"])
    assert labels == ["entry", "loop", "done"]
    assert succs["loop"] == ("loop", "done")  # taken target first
    assert sorted(preds["loop"]) == ["entry", "loop"]


def test_register_universe(loop_program):
    assert register_universe(loop_program.functions["main"]) == \
        frozenset({"acc", "i", "zero", "one"})


def test_definition_is_hashable_value_object():
    a = Definition("entry", 0, "r0")
    assert a == Definition("entry", 0, "r0")
    assert len({a, Definition("entry", 0, "r0")}) == 1
