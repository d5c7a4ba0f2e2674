"""Shared fixtures: small CFGs, behaviours and traces used across suites."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.cfg import ControlFlowGraph
from repro.dbt.batchreplay import ReplaySweepStats
from repro.dbt.replay import registration_positions
from repro.ir import Cond, ProgramBuilder
from repro.stochastic import ProgramBehavior, steady, walk

from .reference import heap_replay, walker_counts, walker_trace

# ``--hypothesis-profile=ci``: more examples for every property test that
# does not pin its own count, and a reproduction blob on any failure.
# Without the flag the default profile applies.
settings.register_profile("ci", max_examples=500, print_blob=True,
                          deadline=None)


@pytest.fixture(autouse=True)
def _hermetic_repro_env(monkeypatch):
    """Clear every ``REPRO_*`` runtime knob around each test.

    A stray ``REPRO_JOBS=1`` or ``REPRO_FAULT_SPEC`` in the developer's
    shell would silently change what the tests exercise.
    """
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        monkeypatch.delenv(var)
    yield
    # Warm pool workers hold fork-time state (environment, module
    # globals) — a worker parked by one test must not serve the next.
    from repro.harness.pool import shutdown_warm_pools
    shutdown_warm_pools()


@pytest.fixture
def oracle_engines(monkeypatch):
    """Route the study pipeline through the reference engines.

    Trace recording runs the scalar walker, count-only runs count the
    scalar walker's trace with ``bincount``, and every replay drains its
    registrations, decoded from each block's store, off a heap (see
    ``tests/reference.py``).  The patches
    live in this process only, so use it with ``jobs=1``.
    """
    def reference_sweep(events, config, optimize_blocks, num_blocks):
        heap_replay(registration_positions(events, config.threshold),
                    config, optimize_blocks)
        return ReplaySweepStats()

    monkeypatch.setattr("repro.workloads.spec.record_trace", walker_trace)
    monkeypatch.setattr("repro.workloads.spec.record_counts", walker_counts)
    monkeypatch.setattr("repro.dbt.replay.run_batched_replay",
                        reference_sweep)


@pytest.fixture
def loop_program():
    """A VIR program: sum 5..1 in a loop, then halt."""
    pb = ProgramBuilder()
    with pb.function("main") as fb:
        (fb.block("entry")
           .li("acc", 0).li("i", 5).li("zero", 0).li("one", 1)
           .jmp("loop"))
        (fb.block("loop")
           .add("acc", "acc", "i")
           .sub("i", "i", "one")
           .br(Cond.GT, "i", "zero", taken="loop", fall="done"))
        fb.block("done").halt()
    return pb.build()


@pytest.fixture
def nested_cfg():
    """Outer loop with a diamond and an inner loop.

    Layout: 0 entry -> 1 outer header -> 2 inner header (branch: body 3 /
    leave 4); 3 latches back to 2; 4 splits to 5/6; both join at 7 which
    is the outer latch (taken -> exit check 8, fall -> back to 1); 8 exit.
    """
    return ControlFlowGraph([
        (1,),        # 0 entry
        (2,),        # 1 outer header
        (3, 4),      # 2 inner header
        (2,),        # 3 inner latch
        (5, 6),      # 4 diamond split
        (7,),        # 5
        (7,),        # 6
        (8, 1),      # 7 outer latch: taken -> exit, fall -> back
        (),          # 8 exit
    ])


@pytest.fixture
def nested_behavior():
    """Behaviour for ``nested_cfg``: ~25-trip inner loop, biased diamond,
    rare outer exit."""
    behavior = ProgramBehavior()
    behavior.set(2, steady(0.96))
    behavior.set(4, steady(0.8))
    behavior.set(7, steady(0.001))
    return behavior


@pytest.fixture
def nested_trace(nested_cfg, nested_behavior):
    """A deterministic medium-length trace of the nested CFG."""
    return walk(nested_cfg, nested_behavior, max_steps=120_000, seed=7)


@pytest.fixture
def diamond_cfg():
    """entry 0 -> split 1 -> arms 2/3 -> join 4 -> exit."""
    return ControlFlowGraph([
        (1,),
        (2, 3),
        (4,),
        (4,),
        (),
    ])
