"""The possibly-undefined-read lint: one named case per rule."""

from repro.analysis import possibly_undefined_reads
from repro.ir import Cond, ProgramBuilder


def _main(pb):
    return pb.build().functions["main"]


def _diamond(then_defines, else_defines):
    """``x`` written on the chosen arms of a diamond, read at the join."""
    pb = ProgramBuilder()
    with pb.function("main") as fb:
        (fb.block("entry")
           .li("c", 1).li("zero", 0)
           .br(Cond.GT, "c", "zero", taken="then", fall="else_"))
        then, else_ = fb.block("then"), fb.block("else_")
        if then_defines:
            then.li("x", 10)
        if else_defines:
            else_.li("x", 20)
        then.jmp("join")
        else_.jmp("join")
        fb.block("join").mov("y", "x").halt()
    return _main(pb)


class TestPossiblyUndefinedReads:
    def test_both_arm_definitions_reach_the_join(self):
        assert possibly_undefined_reads(_diamond(True, True)) == []

    def test_one_arm_definition_reaches_the_join(self):
        # a may analysis: one defining path is enough to stay quiet
        assert possibly_undefined_reads(_diamond(True, False)) == []

    def test_join_read_with_no_definition_is_reported(self):
        assert possibly_undefined_reads(_diamond(False, False)) == \
            [("join", 0, "x")]

    def test_loop_carried_definition_reaches_header(self):
        pb = ProgramBuilder()
        with pb.function("main") as fb:
            fb.block("entry").li("zero", 0).jmp("loop")
            (fb.block("loop")
               .mov("y", "x")          # first iteration: x still unset
               .li("x", 1)
               .br(Cond.GT, "y", "zero", taken="loop", fall="done"))
            fb.block("done").halt()
        assert possibly_undefined_reads(_main(pb)) == []

    def test_undefined_read_is_reported(self):
        pb = ProgramBuilder()
        with pb.function("main") as fb:
            fb.block("entry").mov("a", "never_set").halt()
        assert ("entry", 0, "never_set") in \
            possibly_undefined_reads(_main(pb))

    def test_read_before_write_in_one_block_is_reported(self):
        pb = ProgramBuilder()
        with pb.function("main") as fb:
            fb.block("entry").mov("b", "a").li("a", 1).mov("c", "a").halt()
        assert possibly_undefined_reads(_main(pb)) == [("entry", 0, "a")]

    def test_defined_reads_are_clean(self, loop_program):
        assert possibly_undefined_reads(loop_program.functions["main"]) \
            == []

    def test_call_defines_everything_conservatively(self):
        pb = ProgramBuilder()
        with pb.function("main") as fb:
            fb.block("entry").call("helper").mov("out", "mystery").halt()
        with pb.function("helper") as fb:
            fb.block("entry").li("mystery", 42).ret()
        # 'mystery' is read right after the call: the call may have
        # defined it, so the lint must stay quiet.
        assert possibly_undefined_reads(_main(pb)) == []

    def test_unreachable_blocks_are_skipped(self):
        pb = ProgramBuilder()
        with pb.function("main") as fb:
            fb.block("entry").li("a", 1).halt()
            fb.block("orphan").mov("b", "a").halt()
        # the orphan's read of 'a' is not flagged here (the
        # unreachable-block lint owns that finding)
        assert possibly_undefined_reads(_main(pb)) == []

    def test_unreachable_definition_still_flows_along_its_edges(self):
        pb = ProgramBuilder()
        with pb.function("main") as fb:
            fb.block("entry").jmp("use")
            fb.block("orphan").li("a", 1).jmp("use")
            fb.block("use").mov("b", "a").halt()
        # The orphan's edge into 'use' is never taken, so its write
        # must not silence the read on the only path that runs.
        assert possibly_undefined_reads(_main(pb)) == [("use", 0, "a")]
