"""End-to-end integration: VIR program → interpreter → live DBT →
profiles → the paper's metrics; and the workload path through the runner.
"""

import pytest

from repro.cfg import cfg_from_program
from repro.core import compare_inip_to_avep
from repro.dbt import DBTConfig, TwoPhaseDBT
from repro.interp import Interpreter, TeeListener
from repro.ir import Cond, ProgramBuilder
from repro.profiles import avep_from_trace
from repro.stochastic import TraceRecorder


def _counting_program(outer, inner):
    """Nested counted loops: data-dependent branches, fully deterministic."""
    pb = ProgramBuilder()
    with pb.function("main") as fb:
        (fb.block("entry")
           .li("i", 0).li("acc", 0).li("one", 1)
           .li("outer_n", outer).li("inner_n", inner)
           .jmp("outer_head"))
        (fb.block("outer_head")
           .li("j", 0)
           .jmp("inner_head"))
        (fb.block("inner_head")
           .add("acc", "acc", "one")
           .add("j", "j", "one")
           .br(Cond.LT, "j", "inner_n", taken="inner_head",
               fall="outer_latch"))
        (fb.block("outer_latch")
           .add("i", "i", "one")
           .br(Cond.LT, "i", "outer_n", taken="outer_head", fall="done"))
        fb.block("done").halt()
    return pb.build()


def test_interpreter_drives_live_dbt_and_metrics():
    program = _counting_program(outer=60, inner=40)
    cfg, ids = cfg_from_program(program)

    recorder = TraceRecorder(program.num_blocks())
    dbt = TwoPhaseDBT(cfg, DBTConfig(threshold=50, pool_trigger_size=2))
    interp = Interpreter(program, listener=TeeListener(recorder, dbt),
                         step_limit=10**8)
    interp.run()

    inip = dbt.snapshot()
    avep = avep_from_trace(recorder.trace())

    # the inner loop got optimised into a loop region
    inner_id = interp.block_id("main", "inner_head")
    assert inner_id in inip.optimized_blocks()
    loop_regions = inip.loop_regions()
    assert any(r.entry_block == inner_id for r in loop_regions)

    result = compare_inip_to_avep(cfg, inip, avep)
    # deterministic counted loops: the initial profile is near perfect
    # (the only deviation is the truncated sampling of the loop exits)
    assert result.sd_bp is not None
    assert result.sd_bp < 0.05
    assert result.bp_mismatch == 0.0
    assert result.sd_lp is not None


def test_interpreter_counts_are_exact():
    program = _counting_program(outer=10, inner=7)
    cfg, _ = cfg_from_program(program)
    recorder = TraceRecorder(program.num_blocks())
    interp = Interpreter(program, listener=recorder)
    interp.run()
    trace = recorder.trace()
    avep = avep_from_trace(trace)

    inner_id = interp.block_id("main", "inner_head")
    outer_id = interp.block_id("main", "outer_latch")
    assert avep.blocks[inner_id].use == 70
    assert avep.blocks[inner_id].taken == 60   # 6 taken per 7 trips
    assert avep.blocks[outer_id].use == 10
    assert avep.blocks[outer_id].taken == 9

    # LP of the inner loop from AVEP = (trips-1)/trips
    assert avep.branch_probability(inner_id) == pytest.approx(6 / 7)


def test_workload_pipeline_matches_interpreter_protocol():
    """A suite benchmark processed by the live DBT (via replay_trace)
    equals the ReplayDBT result — cross-checking engines end to end."""
    from repro.dbt import ReplayDBT
    from repro.profiles import snapshot_to_dict
    from ..reference import replay_trace
    from repro.workloads import get_benchmark

    bench = get_benchmark("eon")
    bench.run_steps = 30_000
    trace = bench.trace("ref")
    config = DBTConfig(threshold=25, pool_trigger_size=4)

    live = TwoPhaseDBT(bench.cfg, config)
    replay_trace(trace, live)
    fast = ReplayDBT(trace, bench.cfg, config)
    assert snapshot_to_dict(live.snapshot()) == \
        snapshot_to_dict(fast.snapshot())
