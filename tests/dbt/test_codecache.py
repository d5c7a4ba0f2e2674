"""TranslationMap tests."""

import numpy as np

from repro.dbt import (DBTConfig, ReplayDBT, TranslationMap,
                       translation_map_from_replay, TwoPhaseDBT)
from repro.profiles import EdgeKind, Region, RegionKind

from ..reference import replay_trace


def _loop_region():
    return Region(
        region_id=0, kind=RegionKind.LOOP, members=[2, 3],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        back_edges=[(1, EdgeKind.ALWAYS)],
        exit_edges=[(0, EdgeKind.FALL, 4)],
        tail=1)


def test_map_contents():
    tmap = TranslationMap(6, [_loop_region()], {2: 100, 3: 100})
    assert tmap.optimized_at[2] == 100
    assert np.isinf(tmap.optimized_at[0])
    assert (2, 3) in tmap.internal_pairs      # internal edge
    assert (3, 2) in tmap.internal_pairs      # back edge
    assert (2, 4) not in tmap.internal_pairs  # the exit
    assert tmap.blocks_translated == 2
    assert tmap.regions_formed == 1
    assert tmap.tail_blocks == {3}


def test_internal_pair_codes_sorted():
    tmap = TranslationMap(6, [_loop_region()], {})
    codes = tmap.internal_pair_codes()
    assert list(codes) == sorted(codes)
    assert 2 * 6 + 3 in codes


def test_instructions_translated_counts_duplicates():
    region_a = _loop_region()
    region_b = Region(region_id=1, kind=RegionKind.LINEAR, members=[2],
                      tail=0)
    sizes = np.array([1.0, 1.0, 5.0, 7.0, 1.0, 1.0])
    tmap = TranslationMap(6, [region_a, region_b], {})
    # block 2 translated twice (duplicated) -> 5 + 7 + 5
    assert tmap.instructions_translated(sizes) == 17.0


def test_from_replay_and_live(nested_cfg, nested_trace):
    config = DBTConfig(threshold=30, pool_trigger_size=3)
    replay = ReplayDBT(nested_trace, nested_cfg, config)
    replay.run()
    map_replay = translation_map_from_replay(replay)

    live = TwoPhaseDBT(nested_cfg, config)
    replay_trace(nested_trace, live)
    map_live = translation_map_from_replay(live)

    assert np.array_equal(map_replay.optimized_at, map_live.optimized_at)
    assert map_replay.internal_pairs == map_live.internal_pairs
    assert map_replay.tail_blocks == map_live.tail_blocks
