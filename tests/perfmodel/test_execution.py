"""Cost-estimation tests against hand-computed values."""

import numpy as np
import pytest

from repro.dbt import TranslationMap
from repro.perfmodel import CostModel, estimate_cost
from repro.profiles import EdgeKind, Region, RegionKind
from repro.stochastic import NO_BRANCH, ExecutionTrace

COSTS = CostModel(interp_cost=2.0, profile_overhead=1.0, opt_cost=1.0,
                  side_exit_penalty=10.0, translation_cost=100.0)


def _trace():
    # 0 1 2 1 2 1 3 : block 1 branches (T to 2, F to 3)
    return ExecutionTrace.from_sequences(
        blocks=[0, 1, 2, 1, 2, 1, 3],
        taken=[NO_BRANCH, 1, NO_BRANCH, 1, NO_BRANCH, 0, NO_BRANCH],
        num_blocks=4)


SIZES = [2.0, 3.0, 4.0, 5.0]


def test_fully_unoptimized():
    tmap = TranslationMap(4, [], {})
    breakdown = estimate_cost(_trace(), tmap, SIZES, COSTS)
    # per-step: interp_cost*size + overhead
    expected = sum(2.0 * SIZES[b] + 1.0 for b in [0, 1, 2, 1, 2, 1, 3])
    assert breakdown.unoptimized == pytest.approx(expected)
    assert breakdown.optimized == 0.0
    assert breakdown.side_exits == 0.0
    assert breakdown.translation == 0.0
    assert breakdown.optimized_fraction == 0.0
    assert breakdown.total == pytest.approx(expected)


def test_optimized_with_side_exit():
    # Region covering 1->2 (taken path), formed before the trace begins.
    region = Region(
        region_id=0, kind=RegionKind.LOOP, members=[1, 2],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        back_edges=[(1, EdgeKind.ALWAYS)],
        exit_edges=[(0, EdgeKind.FALL, 3)],
        tail=1)
    tmap = TranslationMap(4, [region], {1: 0, 2: 0})
    breakdown = estimate_cost(_trace(), tmap, SIZES, COSTS)
    # steps at blocks 1,2 are optimised (opt_at=0 <= position):
    opt_steps = [1, 2, 1, 2, 1]
    assert breakdown.optimized == pytest.approx(
        sum(1.0 * SIZES[b] for b in opt_steps))
    assert breakdown.unoptimized == pytest.approx(
        (2.0 * SIZES[0] + 1.0) + (2.0 * SIZES[3] + 1.0))
    # transitions from optimised blocks: 1->2 internal, 2->1 back,
    # 1->3 exit — but block 2 is the region tail, and 1->3 is... block 1
    # is not a tail, so 1->3 is a side exit.
    assert breakdown.num_side_exits == 1
    assert breakdown.side_exits == pytest.approx(10.0)
    # translation: members 1 and 2 -> sizes 3+4 times 100
    assert breakdown.translation == pytest.approx(700.0)
    assert breakdown.optimized_fraction == pytest.approx(5 / 7)


def test_tail_exit_is_free():
    region = Region(
        region_id=0, kind=RegionKind.LINEAR, members=[1, 2],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        exit_edges=[(0, EdgeKind.FALL, 3), (1, EdgeKind.ALWAYS, 1)],
        tail=1)
    tmap = TranslationMap(4, [region], {1: 0, 2: 0})
    breakdown = estimate_cost(_trace(), tmap, SIZES, COSTS)
    # 2 -> 1 transitions leave through the tail (block 2): free.
    # 1 -> 3 is the only side exit.
    assert breakdown.num_side_exits == 1


def test_optimization_mid_trace():
    region = Region(region_id=0, kind=RegionKind.LINEAR, members=[1],
                    tail=0)
    # optimised from step 4: only the last execution of block 1 (position
    # 5) runs optimised.
    tmap = TranslationMap(4, [region], {1: 4})
    breakdown = estimate_cost(_trace(), tmap, SIZES, COSTS)
    assert breakdown.optimized == pytest.approx(1.0 * SIZES[1])


def test_size_mismatch_rejected():
    tmap = TranslationMap(4, [], {})
    with pytest.raises(ValueError, match="length"):
        estimate_cost(_trace(), tmap, [1.0, 2.0], COSTS)
