"""NAVEP frequency-recovery tests (the paper's Figure 4 mechanics)."""

import pytest

from repro.core import CopyRef, DuplicatedGraph, normalize_avep
from repro.dbt import DBTConfig, ReplayDBT
from repro.profiles import (BlockProfile, EdgeKind, ProfileSnapshot, Region,
                            RegionKind, avep_from_trace)
from repro.stochastic import ProgramBehavior, steady, walk


def _avep(block_counts):
    snapshot = ProfileSnapshot(label="AVEP", input_name="ref",
                               threshold=None)
    for block, (use, taken) in block_counts.items():
        snapshot.blocks[block] = BlockProfile(block, use=use, taken=taken)
    return snapshot


def test_known_blocks_keep_avep_frequency(nested_cfg):
    snapshot = ProfileSnapshot(label="INIP", input_name="ref", threshold=1)
    snapshot.regions.append(Region(
        region_id=0, kind=RegionKind.LOOP, members=[2, 3],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        back_edges=[(1, EdgeKind.ALWAYS)],
        exit_edges=[(0, EdgeKind.FALL, 4)],
        tail=1))
    graph = DuplicatedGraph(nested_cfg, snapshot)
    avep = _avep({
        0: (1, 0), 1: (100, 0), 2: (2000, 1900), 3: (1900, 0),
        4: (100, 80), 5: (80, 0), 6: (20, 0), 7: (100, 1), 8: (1, 0),
    })
    navep = normalize_avep(graph, avep)
    # non-duplicated originals pinned exactly
    assert navep.frequency_of(CopyRef(1)) == 100.0
    assert navep.frequency_of(CopyRef(4)) == 100.0


def test_copies_sum_to_avep_frequency(nested_cfg):
    """The paper's conservation invariant on a solvable instance."""
    snapshot = ProfileSnapshot(label="INIP", input_name="ref", threshold=1)
    snapshot.regions.append(Region(
        region_id=0, kind=RegionKind.LOOP, members=[2, 3],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        back_edges=[(1, EdgeKind.ALWAYS)],
        exit_edges=[(0, EdgeKind.FALL, 4)],
        tail=1))
    graph = DuplicatedGraph(nested_cfg, snapshot)
    avep = _avep({
        0: (1, 0), 1: (100, 0), 2: (2000, 1900), 3: (1900, 0),
        4: (100, 80), 5: (80, 0), 6: (20, 0), 7: (100, 1), 8: (1, 0),
    })
    navep = normalize_avep(graph, avep)
    assert navep.block_total(2) == pytest.approx(2000.0, rel=0.01)
    assert navep.block_total(3) == pytest.approx(1900.0, rel=0.01)
    # instance receives essentially all the flow (everything enters the
    # region through its entry).
    assert navep.frequency_of(CopyRef(2, 0, 0)) == \
        pytest.approx(2000.0, rel=0.02)


def test_frequencies_never_negative(nested_cfg, nested_behavior):
    trace = walk(nested_cfg, nested_behavior, 40_000, seed=9)
    avep = avep_from_trace(trace)
    replay = ReplayDBT(trace, nested_cfg,
                       DBTConfig(threshold=20, pool_trigger_size=3))
    inip = replay.snapshot()
    graph = DuplicatedGraph(nested_cfg, inip)
    navep = normalize_avep(graph, inip and avep)
    assert (navep.frequencies >= 0.0).all()


def test_conservation_on_real_pipeline(nested_cfg, nested_behavior):
    """End-to-end: duplicated copies of every block sum to ~AVEP."""
    trace = walk(nested_cfg, nested_behavior, 60_000, seed=21)
    avep = avep_from_trace(trace)
    replay = ReplayDBT(trace, nested_cfg,
                       DBTConfig(threshold=50, pool_trigger_size=3))
    inip = replay.snapshot()
    graph = DuplicatedGraph(nested_cfg, inip)
    navep = normalize_avep(graph, avep)
    for block in sorted(graph.duplicated_blocks()):
        expected = avep.block_frequency(block)
        if expected > 100:  # only meaningful for warm blocks
            assert navep.block_total(block) == \
                pytest.approx(expected, rel=0.05), f"block {block}"


def test_no_duplication_is_identity(nested_cfg):
    snapshot = ProfileSnapshot(label="INIP", input_name="ref", threshold=1)
    graph = DuplicatedGraph(nested_cfg, snapshot)
    avep = _avep({b: (10 * (b + 1), 0) for b in range(9)})
    navep = normalize_avep(graph, avep)
    for block in range(9):
        assert navep.frequency_of(CopyRef(block)) == 10 * (block + 1)


def test_clipped_negative_copies_are_counted(nested_cfg, monkeypatch):
    """A negative least-squares copy is clipped to zero as before, and
    the clip is recorded instead of hidden."""
    import numpy as np

    from repro.obs.registry import counter_value, get_registry

    snapshot = ProfileSnapshot(label="INIP", input_name="ref", threshold=1)
    snapshot.regions.append(Region(
        region_id=0, kind=RegionKind.LOOP, members=[2, 3],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        back_edges=[(1, EdgeKind.ALWAYS)],
        exit_edges=[(0, EdgeKind.FALL, 4)],
        tail=1))
    graph = DuplicatedGraph(nested_cfg, snapshot)
    avep = _avep({
        0: (1, 0), 1: (100, 0), 2: (2000, 1900), 3: (1900, 0),
        4: (100, 80), 5: (80, 0), 6: (20, 0), 7: (100, 1), 8: (1, 0),
    })
    mass = get_registry().histogram("navep.clipped_negative_mass")

    def solve():
        copies, solves = counter_value("navep.clipped_copies"), mass.count
        frequencies = normalize_avep(graph, avep).frequencies
        assert mass.count == solves + 1  # one observation per solve
        return (frequencies, counter_value("navep.clipped_copies") - copies,
                mass.values()[-1])

    clean, clean_copies, clean_mass = solve()
    # lstsq solves for the unknown copies only, in node order; force the
    # hottest of them negative.
    duplicated = graph.duplicated_blocks()
    unknown = [v for v, ref in enumerate(graph.nodes)
               if ref.is_instance or ref.block_id in duplicated]
    k = int(np.argmax(clean[unknown]))
    assert clean[unknown[k]] > 0
    real_lstsq = np.linalg.lstsq

    def negative_hottest(a, b, rcond=None):
        x, *rest = real_lstsq(a, b, rcond=rcond)
        x = x.copy()
        x[k] = -2.5
        return (x, *rest)

    monkeypatch.setattr(np.linalg, "lstsq", negative_hottest)
    clipped, copies, clipped_mass = solve()

    assert clipped[unknown[k]] == 0.0
    others = np.arange(graph.num_nodes) != unknown[k]
    np.testing.assert_array_equal(clipped[others], clean[others])
    assert copies == clean_copies + 1
    assert clipped_mass == pytest.approx(clean_mass + 2.5)
