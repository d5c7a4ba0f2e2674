"""Profile data-model tests."""

import pytest

from repro.profiles import (BlockProfile, EdgeKind, ProfileSnapshot, Region,
                            RegionKind)


class TestBlockProfile:
    def test_branch_probability(self):
        assert BlockProfile(0, use=10, taken=4).branch_probability == 0.4
        assert BlockProfile(0).branch_probability is None

    def test_frozen_flag(self):
        assert BlockProfile(0, frozen_at=5).is_frozen
        assert not BlockProfile(0).is_frozen


class TestEdgeKind:
    def test_probabilities(self):
        assert EdgeKind.TAKEN.probability(0.8) == 0.8
        assert EdgeKind.FALL.probability(0.8) == pytest.approx(0.2)
        assert EdgeKind.ALWAYS.probability(0.8) == 1.0

    def test_unprofiled_prior(self):
        assert EdgeKind.TAKEN.probability(None) == 0.5
        assert EdgeKind.FALL.probability(None) == 0.5
        assert EdgeKind.ALWAYS.probability(None) == 1.0


class TestRegion:
    def _region(self):
        return Region(
            region_id=0, kind=RegionKind.LOOP, members=[7, 8],
            internal_edges=[(0, 1, EdgeKind.TAKEN)],
            back_edges=[(1, EdgeKind.ALWAYS)],
            exit_edges=[(0, EdgeKind.FALL, 9)],
            tail=1)

    def test_accessors(self):
        region = self._region()
        assert region.entry_block == 7
        assert region.num_instances == 2
        region.validate()

    def test_instance_successors(self):
        region = self._region()
        succ0 = region.instance_successors(0)
        assert (EdgeKind.TAKEN, 1, None) in succ0
        assert (EdgeKind.FALL, None, 9) in succ0
        succ1 = region.instance_successors(1)
        assert (EdgeKind.ALWAYS, 0, None) in succ1

    @pytest.mark.parametrize("mutate", [
        lambda r: r.internal_edges.append((0, 9, EdgeKind.TAKEN)),
        lambda r: r.back_edges.append((5, EdgeKind.TAKEN)),
        lambda r: r.exit_edges.append((9, EdgeKind.TAKEN, 1)),
        lambda r: setattr(r, "tail", 7),
        lambda r: setattr(r, "members", []),
        lambda r: setattr(r, "back_edges", []),   # loop without back edges
    ])
    def test_validation_rejects_corruption(self, mutate):
        region = self._region()
        mutate(region)
        with pytest.raises(ValueError):
            region.validate()


class TestProfileSnapshot:
    def _snapshot(self):
        snapshot = ProfileSnapshot(label="INIP(5)", input_name="ref",
                                   threshold=5)
        snapshot.blocks[1] = BlockProfile(1, use=10, taken=7, frozen_at=3)
        snapshot.blocks[2] = BlockProfile(2, use=4, taken=0)
        snapshot.regions.append(Region(
            region_id=0, kind=RegionKind.LINEAR, members=[1], tail=0))
        return snapshot

    def test_queries(self):
        snapshot = self._snapshot()
        assert snapshot.branch_probability(1) == 0.7
        assert snapshot.branch_probability(99) is None
        assert snapshot.block_frequency(2) == 4
        assert snapshot.block_frequency(99) == 0
        assert snapshot.regions
        assert snapshot.optimized_blocks() == {1: snapshot.regions}

    def test_region_kind_filters(self):
        snapshot = self._snapshot()
        assert len(snapshot.linear_regions()) == 1
        assert len(snapshot.loop_regions()) == 0

    def test_validation_catches_taken_above_use(self):
        snapshot = self._snapshot()
        snapshot.blocks[1] = BlockProfile(1, use=2, taken=5)
        with pytest.raises(ValueError, match="exceeds"):
            snapshot.validate()

    def test_validation_catches_key_mismatch(self):
        snapshot = self._snapshot()
        snapshot.blocks[9] = BlockProfile(1, use=1)
        with pytest.raises(ValueError, match="key"):
            snapshot.validate()
