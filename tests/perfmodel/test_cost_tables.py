"""CostTables: pricing by rank from the event index must not move a bit.

The shared-tables path only exists because its results are
*bit-identical* to the per-call estimator and the per-step oracle (the
golden corpus is pinned by SHA-256, so even a one-ulp drift would
show).  These tests compare breakdowns field for field with ``==`` on
the raw floats — no ``approx`` anywhere.
"""

import numpy as np
import pytest

from repro.dbt import DBTConfig, MultiThresholdReplay, ReplayDBT
from repro.perfmodel import CostModel, CostTables, estimate_cost
from repro.stochastic import walk

from ..reference import reference_breakdown, reference_replay


def _exact_equal(a, b, label=""):
    assert (a.unoptimized, a.optimized, a.side_exits, a.translation,
            a.num_side_exits, a.optimized_fraction) == \
           (b.unoptimized, b.optimized, b.side_exits, b.translation,
            b.num_side_exits, b.optimized_fraction), label


def _sizes(cfg, seed=0):
    rng = np.random.RandomState(seed)
    return rng.randint(1, 12, size=cfg.num_nodes)


def test_tables_path_bitwise_equals_direct_path(nested_cfg, nested_trace):
    sizes = _sizes(nested_cfg)
    tables = CostTables(nested_trace, sizes)
    for threshold in (1, 5, 50, 500):
        tmap = ReplayDBT(nested_trace, nested_cfg,
                         DBTConfig(threshold=threshold)).translation_map()
        direct = estimate_cost(nested_trace, tmap, sizes)
        shared = estimate_cost(nested_trace, tmap, sizes, tables=tables)
        _exact_equal(direct, shared, f"threshold={threshold}")


def test_tables_bitwise_across_custom_costs(nested_cfg, nested_trace):
    sizes = _sizes(nested_cfg, seed=3)
    costs = CostModel(interp_cost=4.5, profile_overhead=1.25,
                      opt_cost=0.75)
    tables = CostTables(nested_trace, sizes, costs)
    tmap = ReplayDBT(nested_trace, nested_cfg,
                     DBTConfig(threshold=20)).translation_map()
    direct = estimate_cost(nested_trace, tmap, sizes, costs)
    shared = estimate_cost(nested_trace, tmap, sizes, costs, tables=tables)
    _exact_equal(direct, shared)


def test_side_exit_counts_equal_oracle(nested_cfg, nested_trace):
    """Per-edge side-exit counting matches the per-step membership test."""
    sizes = _sizes(nested_cfg)
    tables = CostTables(nested_trace, sizes)
    for threshold in (1, 5, 50, 500):
        tmap = ReplayDBT(nested_trace, nested_cfg,
                         DBTConfig(threshold=threshold)).translation_map()
        assert tmap.internal_pairs  # the fixture trace must form regions
        priced = estimate_cost(nested_trace, tmap, sizes, tables=tables)
        oracle = reference_breakdown(nested_trace, tmap, sizes)
        assert priced.num_side_exits == oracle.num_side_exits > 0
        assert priced.side_exits == oracle.side_exits


def test_tables_reject_foreign_trace(nested_cfg, nested_trace,
                                     nested_behavior):
    sizes = _sizes(nested_cfg)
    other = walk(nested_cfg, nested_behavior, max_steps=1_000, seed=1)
    tables = CostTables(other, sizes)
    tmap = ReplayDBT(nested_trace, nested_cfg,
                     DBTConfig(threshold=5)).translation_map()
    with pytest.raises(ValueError):
        estimate_cost(nested_trace, tmap, sizes, tables=tables)


def test_tables_reject_wrong_sizes(nested_cfg, nested_trace):
    with pytest.raises(ValueError):
        CostTables(nested_trace, [1, 2, 3])


def test_multireplay_maps_price_identically_under_tables(nested_cfg,
                                                         nested_trace):
    """The full sweep shape the harness runs: one tables object, many
    maps from a multi-threshold replay, each priced like the reference
    replay's map at the same threshold."""
    sizes = _sizes(nested_cfg)
    thresholds = [5, 50, 500]
    tables = CostTables(nested_trace, sizes)
    sweep = MultiThresholdReplay(nested_trace, nested_cfg, thresholds).run()
    for t in thresholds:
        priced = []
        for label, replay in (
                ("batched", sweep.state(t)),
                ("reference", reference_replay(
                    nested_trace, nested_cfg, DBTConfig(threshold=t)))):
            tmap = replay.translation_map()
            direct = estimate_cost(nested_trace, tmap, sizes)
            shared = estimate_cost(nested_trace, tmap, sizes,
                                   tables=tables)
            _exact_equal(direct, shared, f"t={t} {label}")
            priced.append(shared)
        _exact_equal(*priced, label=f"t={t} batched vs reference")
