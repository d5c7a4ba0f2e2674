"""Differential wall: a walker trace's cost tables against a step gather.

A trace recorded by :class:`~repro.stochastic.VecWalker` builds
:class:`~repro.perfmodel.CostTables` from its event index and the
walker's successor table (a block's only successor, or a branch's
taken/fall-through successor by the outcomes in ``taken_prefix``),
without decoding its steps.  Here the tables must equal
:func:`reference.reference_edge_index`, which reads every step's
successor off the decoded ``blocks`` array: same ``keys``,
``edge_src``, ``edge_code``, ``edge_end`` and last block.  The priced
breakdowns must equal the per-step oracle too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import ControlFlowGraph
from repro.dbt import DBTConfig, ReplayDBT
from repro.obs.registry import counter_value
from repro.perfmodel import CostTables, estimate_cost
from repro.stochastic import ProgramBehavior, VecWalker, steady
from repro.workloads import all_benchmarks, get_benchmark

from ..reference import reference_breakdown, reference_edge_index
from ..stochastic.test_vecwalker_diff import walk_case


def assert_tables_equal_gather(trace, label=""):
    """Tables built first (no decode), then checked against the gather."""
    decodes = counter_value("trace.decodes")
    tables = CostTables(trace, np.ones(trace.num_blocks))
    assert counter_value("trace.decodes") == decodes, label
    keys, src, code, end, last = reference_edge_index(trace)
    np.testing.assert_array_equal(tables.keys, keys, label)
    np.testing.assert_array_equal(tables.edge_src, src, label)
    np.testing.assert_array_equal(tables.edge_code, code, label)
    np.testing.assert_array_equal(tables.edge_end, end, label)
    assert tables._last_block == last, label
    return tables


@settings(max_examples=150, deadline=None)
@given(walk_case())
def test_fuzz_walker_tables_equal_gather(case):
    cfg, behavior, steps, seed, _ = case
    trace = VecWalker(cfg, behavior, seed=seed).run(steps)
    assert_tables_equal_gather(trace, f"steps={steps} seed={seed}")


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


@pytest.mark.parametrize("name", [b.name for b in all_benchmarks()])
def test_benchmark_ref_tables_equal_gather(name):
    bench = get_benchmark(name).scaled(0.05)
    assert_tables_equal_gather(bench.trace("ref"), name)
