"""Differential wall: rank pricing off the event index against a gather.

:class:`~repro.perfmodel.CostTables` keeps each block's rank/select
store from the event index and its dynamic edges from the trace's
successor table, and counts a map's optimised steps and edge
traversals by rank.  Here every count must equal
:func:`reference.reference_optimized_steps`, which gathers every step
of the decoded trace: the tables' edge codes are exactly the trace's
dynamic edges, and under each map the per-block and per-edge counts
match.  Building and pricing a walker trace's tables must not decode
its steps.  Walker traces (from the decision log) and array traces
(the scalar walker, ``from_sequences``) take the same path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import ControlFlowGraph
from repro.dbt import DBTConfig, ReplayDBT, TranslationMap
from repro.obs.registry import counter_value
from repro.perfmodel import CostTables, estimate_cost
from repro.stochastic import (NO_BRANCH, ExecutionTrace, ProgramBehavior,
                              TraceError, VecWalker, steady)
from repro.workloads import all_benchmarks, get_benchmark

from ..reference import (reference_breakdown, reference_optimized_steps,
                         walker_trace)
from ..stochastic.test_vecwalker_diff import walk_case


def boundary_maps(trace, seed=0, count=6):
    """``optimized_at`` arrays mixing every boundary kind: negative, 0,
    fractional, ``n - 1``, ``n``, ``inf`` and steps inside the run."""
    n = trace.num_steps
    rng = np.random.default_rng(seed)
    kinds = np.array([-2.0, 0.0, n - 1, n, math.inf, n / 3 + 0.5])
    maps = []
    for _ in range(count):
        at = rng.choice(kinds, size=trace.num_blocks)
        inside = rng.random(trace.num_blocks) < 0.5
        at[inside] = rng.integers(0, max(n, 1), size=int(inside.sum()))
        maps.append(at)
    return maps


def assert_tables_equal_gather(trace, label="", maps=None):
    """Tables built and priced first (no decode), then checked against
    the per-step gather."""
    decodes = counter_value("trace.decodes")
    tables = CostTables(trace, np.ones(trace.num_blocks))
    maps = boundary_maps(trace) if maps is None else maps
    priced = [tables.optimized_steps(
        TranslationMap(trace.num_blocks, [], dict(enumerate(at))))
        for at in maps]
    assert counter_value("trace.decodes") == decodes, label
    codes = tables.edge_code.tolist()
    assert len(set(codes)) == len(codes), label
    for at, (per_block, per_edge) in zip(maps, priced):
        want_block, want_edge = reference_optimized_steps(trace, at)
        assert set(codes) == set(want_edge), label
        np.testing.assert_array_equal(per_block, want_block, label)
        assert dict(zip(codes, per_edge.tolist())) == want_edge, label
    return tables


def optimized_at(num_blocks, num_steps):
    n = num_steps
    return st.lists(
        st.one_of(st.sampled_from([-3.0, 0.0, n - 1, n, math.inf]),
                  st.floats(min_value=0, max_value=n + 1).map(
                      lambda x: math.floor(x) + 0.5),
                  st.integers(min_value=0, max_value=max(n - 1, 0))),
        min_size=num_blocks, max_size=num_blocks)


@settings(max_examples=150, deadline=None)
@given(walk_case(), st.data())
def test_fuzz_walker_tables_equal_gather(case, data):
    cfg, behavior, steps, seed, _ = case
    trace = VecWalker(cfg, behavior, seed=seed).run(steps)
    maps = [data.draw(optimized_at(cfg.num_nodes, trace.num_steps))
            for _ in range(3)]
    assert_tables_equal_gather(trace, f"steps={steps} seed={seed}", maps)


@settings(max_examples=100, deadline=None)
@given(walk_case(), st.data())
def test_fuzz_array_tables_equal_gather(case, data):
    """The scalar walker's array trace, and the same arrays rebuilt with
    ``from_sequences``, price like the log."""
    cfg, behavior, steps, seed, _ = case
    trace = walker_trace(cfg, behavior, steps, seed)
    maps = [data.draw(optimized_at(cfg.num_nodes, trace.num_steps))
            for _ in range(3)]
    assert_tables_equal_gather(trace, f"steps={steps} seed={seed}", maps)
    rebuilt = ExecutionTrace.from_sequences(
        trace.blocks.tolist(), trace.taken.tolist(), cfg.num_nodes)
    assert_tables_equal_gather(rebuilt, "from_sequences", maps)


@settings(max_examples=60, deadline=None)
@given(walk_case(), st.integers(min_value=1, max_value=400))
def test_fuzz_walker_pricing_equals_oracle(case, threshold):
    cfg, behavior, steps, seed, _ = case
    trace = VecWalker(cfg, behavior, seed=seed).run(steps)
    sizes = np.arange(cfg.num_nodes) % 7 + 1
    tables = CostTables(trace, sizes)
    tmap = ReplayDBT(trace, cfg,
                     DBTConfig(threshold=threshold)).translation_map()
    priced = estimate_cost(trace, tmap, sizes, tables=tables)
    oracle = reference_breakdown(trace, tmap, sizes)
    assert (priced.unoptimized, priced.optimized, priced.side_exits,
            priced.num_side_exits, priced.optimized_fraction) == \
        (oracle.unoptimized, oracle.optimized, oracle.side_exits,
         oracle.num_side_exits, oracle.optimized_fraction)


# ---------------------------------------------------------------------------
# Named edge cases.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("steps", [0, 1, 2, 5, 9, 10, 11, 4_000])
def test_branch_with_one_target_and_every_budget(steps):
    """A branch whose taken and fall-through successors coincide has one
    dynamic edge; budgets end on a branch, mid-segment and at the exit."""
    cfg = ControlFlowGraph([(1,), (2, 2), (3,), (1, 4), ()])
    behavior = ProgramBehavior()
    behavior.set(1, steady(0.5))
    behavior.set(3, steady(0.999))
    trace = VecWalker(cfg, behavior, seed=3).run(steps)
    tables = assert_tables_equal_gather(trace, f"steps={steps}")
    if steps >= 3:
        assert list(tables.edge_code[tables.edge_src == 1]) == [1 * 5 + 2]


# 0 -> 1; 1 branches, taken to 2, fall-through to 3; 2 -> 1; 3 exits.
_LOOP = ControlFlowGraph([(1,), (2, 3), (1,), ()])


@pytest.mark.parametrize("blocks, taken", [
    ([], []),
    ([0], [NO_BRANCH]),
    ([0, 1], [NO_BRANCH, 1]),
    # The last step is a branch with a recorded outcome: it has no edge.
    ([0, 1, 2, 1], [NO_BRANCH, 1, NO_BRANCH, 1]),
    ([0, 1, 2, 1, 2, 1], [NO_BRANCH, 1, NO_BRANCH, 1, NO_BRANCH, 0]),
    # Ends in the exit block.
    ([0, 1, 2, 1, 3], [NO_BRANCH, 1, NO_BRANCH, 0, NO_BRANCH]),
])
def test_named_array_traces(blocks, taken):
    trace = ExecutionTrace.from_sequences(blocks, taken, 4)
    trace.validate_against_cfg(_LOOP)
    assert_tables_equal_gather(trace, str(blocks))


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 4, 7, 50])
def test_walker_budgets_on_a_branch_and_an_exit(steps):
    """Budgets stop on the branch (its outcome recorded), inside the
    loop, and past the exit, where the walk ends early."""
    behavior = ProgramBehavior()
    behavior.set(1, steady(0.8))
    assert_tables_equal_gather(VecWalker(_LOOP, behavior, seed=5)
                               .run(steps), f"steps={steps}")


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 4, 5, 6, 40])
def test_branch_free_cycle_tail(steps):
    """After one branch the walk enters a branch-free cycle it never
    leaves: the run ends in the log's closed-form tail."""
    cfg = ControlFlowGraph([(1, 2), (0,), (3,), (4,), (2,)])
    behavior = ProgramBehavior()
    behavior.set(0, steady(0.6))
    for seed in range(3):
        assert_tables_equal_gather(VecWalker(cfg, behavior, seed=seed)
                                   .run(steps), f"steps={steps}")


def test_array_trace_with_two_successors_under_one_outcome():
    """Block 0 has no branch outcome yet leaves to both 1 and 2: no
    CFG walk does that, so the trace cannot be priced."""
    trace = ExecutionTrace.from_sequences(
        [0, 1, 0, 2], [NO_BRANCH] * 4, 3)
    with pytest.raises(TraceError, match="block 0"):
        CostTables(trace, np.ones(3))


@pytest.mark.parametrize("name", [b.name for b in all_benchmarks()])
def test_benchmark_ref_tables_equal_gather(name):
    bench = get_benchmark(name).scaled(0.05)
    assert_tables_equal_gather(bench.trace("ref"), name)
