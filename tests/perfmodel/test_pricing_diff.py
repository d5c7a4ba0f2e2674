"""Differential wall: by-rank pricing must equal the per-step oracle.

``estimate_cost`` prices a translation map by rank from the ref trace's
event index (through :class:`~repro.perfmodel.CostTables`);
``reference_breakdown`` (``tests/reference.py``) prices the same map one
trace step at a time.
With integral sizes and costs (``DEFAULT_COSTS`` and every study) every
partial sum is an exact integer, so the two must agree with raw ``==``.
Fractional costs may differ only by summation rounding (``rel=1e-12``);
the counts (side exits, optimised fraction) stay exact.

The hypothesis tests fuzz random CFGs x behaviours x thresholds x sizes,
plus synthetic maps no replay would produce; the named tests pin the
boundaries: empty and 1-step traces, an optimised last step, maps
without internal pairs, tail-only exits and never-optimised blocks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import ControlFlowGraph
from repro.dbt import DBTConfig, ReplayDBT, TranslationMap
from repro.perfmodel import (DEFAULT_COSTS, CostModel, CostTables,
                             estimate_cost)
from repro.profiles import EdgeKind, Region, RegionKind
from repro.stochastic import (NO_BRANCH, ExecutionTrace, ProgramBehavior,
                              walk)

from ..dbt.test_replay_diff import behavior_strategy, cfg_strategy
from ..reference import reference_breakdown

FRACTIONAL = CostModel(interp_cost=2.7, profile_overhead=0.3,
                       opt_cost=1.1, side_exit_penalty=17.5,
                       translation_cost=999.9)


def _fields(breakdown):
    return (breakdown.unoptimized, breakdown.optimized,
            breakdown.side_exits, breakdown.translation,
            breakdown.num_side_exits, breakdown.optimized_fraction)


def _assert_exact(priced, oracle, label=""):
    assert _fields(priced) == _fields(oracle), label


def _assert_close(priced, oracle, label=""):
    assert priced.unoptimized == pytest.approx(oracle.unoptimized,
                                               rel=1e-12), label
    assert priced.optimized == pytest.approx(oracle.optimized,
                                             rel=1e-12), label
    assert priced.translation == pytest.approx(oracle.translation,
                                               rel=1e-12), label
    assert (priced.num_side_exits, priced.side_exits,
            priced.optimized_fraction) == \
        (oracle.num_side_exits, oracle.side_exits,
         oracle.optimized_fraction), label


def _check(trace, tmap, sizes, costs, exact=True):
    """Shared tables, a fresh table build and the oracle all agree."""
    oracle = reference_breakdown(trace, tmap, sizes, costs)
    tables = CostTables(trace, sizes, costs)
    for priced in (estimate_cost(trace, tmap, sizes, costs),
                   estimate_cost(trace, tmap, sizes, costs, tables=tables)):
        (_assert_exact if exact else _assert_close)(priced, oracle)
    return oracle


# ---------------------------------------------------------------------------
# Hypothesis fuzz.
# ---------------------------------------------------------------------------

@st.composite
def trace_case(draw):
    steps = draw(st.integers(min_value=0, max_value=600))
    cfg = draw(cfg_strategy())
    behavior = draw(behavior_strategy(cfg, steps))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return walk(cfg, behavior, max_steps=steps, seed=seed), cfg


def int_sizes(n):
    return st.lists(st.integers(min_value=0, max_value=40),
                    min_size=n, max_size=n)


@st.composite
def synthetic_map(draw, num_blocks, num_steps):
    """Arbitrary freeze steps (inf, out of range, fractional) and
    regions over arbitrary blocks, internal and back edges, tails."""
    block = st.integers(min_value=0, max_value=num_blocks - 1)
    freeze_at = st.one_of(
        st.just(math.inf),
        st.integers(min_value=-2, max_value=num_steps + 2),
        st.integers(min_value=0, max_value=num_steps).map(
            lambda s: s + 0.5))
    freeze = draw(st.dictionaries(block, freeze_at, max_size=num_blocks))
    regions = []
    for region_id in range(draw(st.integers(min_value=0, max_value=3))):
        members = draw(st.lists(block, min_size=1, max_size=5))
        instance = st.integers(min_value=0, max_value=len(members) - 1)
        regions.append(Region(
            region_id=region_id, kind=RegionKind.LINEAR, members=members,
            internal_edges=draw(st.lists(
                st.tuples(instance, instance, st.just(EdgeKind.TAKEN)),
                max_size=6)),
            back_edges=draw(st.lists(
                st.tuples(instance, st.just(EdgeKind.ALWAYS)), max_size=2)),
            tail=draw(instance)))
    return TranslationMap(num_blocks, regions, freeze)


@settings(deadline=None)
@given(trace_case(), st.data(),
       st.lists(st.integers(min_value=1, max_value=60), min_size=1,
                max_size=4))
def test_fuzz_replay_maps_exact(case, data, thresholds):
    """Maps from real replays at several thresholds, DEFAULT_COSTS."""
    trace, cfg = case
    sizes = data.draw(int_sizes(cfg.num_nodes))
    for t in thresholds:
        tmap = ReplayDBT(trace, cfg, DBTConfig(threshold=t)).translation_map()
        _check(trace, tmap, sizes, DEFAULT_COSTS)


@settings(deadline=None)
@given(trace_case(), st.data())
def test_fuzz_synthetic_maps_exact(case, data):
    """Any map and any integral calibration price exactly."""
    trace, cfg = case
    sizes = data.draw(int_sizes(cfg.num_nodes))
    tmap = data.draw(synthetic_map(cfg.num_nodes, trace.num_steps))
    weight = st.integers(min_value=0, max_value=50).map(float)
    opt, interp = sorted(data.draw(st.tuples(weight, weight)))
    costs = CostModel(interp_cost=interp, opt_cost=opt,
                      profile_overhead=data.draw(weight),
                      side_exit_penalty=data.draw(weight),
                      translation_cost=data.draw(weight))
    _check(trace, tmap, sizes, costs)


@settings(deadline=None)
@given(trace_case(), st.data())
def test_fuzz_fractional_costs_close(case, data):
    trace, cfg = case
    sizes = data.draw(st.lists(
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
        min_size=cfg.num_nodes, max_size=cfg.num_nodes))
    tmap = data.draw(synthetic_map(cfg.num_nodes, trace.num_steps))
    _check(trace, tmap, sizes, FRACTIONAL, exact=False)


# ---------------------------------------------------------------------------
# Named edge cases.
# ---------------------------------------------------------------------------

def _loop_trace():
    # 0 1 2 1 2 1 3: block 1 branches (taken to 2, fall to 3)
    return ExecutionTrace.from_sequences(
        blocks=[0, 1, 2, 1, 2, 1, 3],
        taken=[NO_BRANCH, 1, NO_BRANCH, 1, NO_BRANCH, 0, NO_BRANCH],
        num_blocks=4)


def _loop_region(tail):
    return Region(region_id=0, kind=RegionKind.LINEAR, members=[1, 2],
                  internal_edges=[(0, 1, EdgeKind.TAKEN)], tail=tail)


SIZES = [2, 3, 4, 5]


@pytest.mark.parametrize("steps", [0, 1])
def test_empty_and_one_step_traces(steps):
    cfg = ControlFlowGraph([(1,), (2,), ()])
    trace = walk(cfg, ProgramBehavior(), max_steps=steps, seed=0)
    assert trace.num_steps == steps
    region = Region(region_id=0, kind=RegionKind.LINEAR, members=[0, 1],
                    internal_edges=[(0, 1, EdgeKind.ALWAYS)], tail=1)
    for freeze in ({}, {0: 0}, {0: 0, 1: 0, 2: 0}):
        tmap = TranslationMap(3, [region], freeze)
        oracle = _check(trace, tmap, [1, 2, 3], DEFAULT_COSTS)
        assert oracle.num_side_exits == 0
        if steps == 0:
            assert oracle.unoptimized == oracle.optimized == 0.0
            assert oracle.optimized_fraction == 0.0


@pytest.mark.parametrize("freeze_at, optimized", [(6, True), (6.5, False),
                                                  (7, False)])
def test_last_step_block_optimised(freeze_at, optimized):
    """The last step has no outgoing edge; it is counted on its own."""
    trace = _loop_trace()
    tmap = TranslationMap(4, [], {3: freeze_at})
    oracle = _check(trace, tmap, SIZES, DEFAULT_COSTS)
    assert oracle.optimized == (SIZES[3] if optimized else 0.0)
    assert oracle.optimized_fraction == (1 / 7 if optimized else 0.0)


def test_map_without_internal_pairs_has_no_side_exits():
    """Optimised blocks but no region edges: nothing is a side exit."""
    trace = _loop_trace()
    region = Region(region_id=0, kind=RegionKind.LINEAR, members=[1, 2],
                    tail=0)
    tmap = TranslationMap(4, [region], {0: 0, 1: 0, 2: 0, 3: 0})
    assert not tmap.internal_pairs
    oracle = _check(trace, tmap, SIZES, DEFAULT_COSTS)
    assert oracle.num_side_exits == 0
    assert oracle.optimized_fraction == 1.0


def test_tail_only_exits_are_free():
    """Every step leaving the region leaves through its tail."""
    trace = ExecutionTrace.from_sequences(
        blocks=[0, 1, 2, 0, 1, 2, 0], taken=[NO_BRANCH] * 7, num_blocks=3)

    def chain(tail):
        region = Region(region_id=0, kind=RegionKind.LINEAR,
                        members=[0, 1, 2],
                        internal_edges=[(0, 1, EdgeKind.ALWAYS),
                                        (1, 2, EdgeKind.ALWAYS)], tail=tail)
        return TranslationMap(3, [region], {0: 0, 1: 0, 2: 0})

    assert _check(trace, chain(2), [1, 2, 3], DEFAULT_COSTS) \
        .num_side_exits == 0
    # With the tail moved, both 2 -> 0 steps become side exits.
    assert _check(trace, chain(1), [1, 2, 3], DEFAULT_COSTS) \
        .num_side_exits == 2


def test_never_optimised_blocks():
    """``inf`` freeze steps price every step unoptimised and exit free."""
    trace = _loop_trace()
    tmap = TranslationMap(4, [_loop_region(tail=1)], {})
    assert np.isinf(tmap.optimized_at).all()
    oracle = _check(trace, tmap, SIZES, DEFAULT_COSTS)
    assert oracle.optimized == 0.0
    assert oracle.num_side_exits == 0
    # Only block 1 optimised (from step 0): its 1 -> 3 exit is a side exit.
    partly = TranslationMap(4, [_loop_region(tail=1)], {1: 0})
    assert _check(trace, partly, SIZES, DEFAULT_COSTS).num_side_exits == 1
