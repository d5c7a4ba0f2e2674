"""Profile serialisation tests."""

import pytest

from repro.profiles import (BlockProfile, EdgeKind, ProfileSnapshot, Region,
                            RegionKind, snapshot_from_dict, snapshot_to_dict)


def _snapshot():
    snapshot = ProfileSnapshot(label="INIP(100)", input_name="ref",
                               threshold=100, total_steps=5000,
                               profiling_ops=1234)
    snapshot.blocks[3] = BlockProfile(3, use=200, taken=150, frozen_at=77)
    snapshot.blocks[4] = BlockProfile(4, use=10, taken=0)
    snapshot.regions.append(Region(
        region_id=0, kind=RegionKind.LOOP, members=[3, 4],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        back_edges=[(1, EdgeKind.ALWAYS)],
        exit_edges=[(0, EdgeKind.FALL, 5)],
        tail=1, formed_at=77))
    return snapshot


def test_dict_roundtrip():
    original = _snapshot()
    data = snapshot_to_dict(original)
    restored = snapshot_from_dict(data)
    assert snapshot_to_dict(restored) == data


def test_version_check():
    data = snapshot_to_dict(_snapshot())
    data["version"] = 999
    with pytest.raises(ValueError, match="version"):
        snapshot_from_dict(data)


def test_loaded_snapshot_is_validated():
    data = snapshot_to_dict(_snapshot())
    data["blocks"][0]["taken"] = 10**9  # taken > use
    with pytest.raises(ValueError):
        snapshot_from_dict(data)


def test_avep_snapshot_roundtrip():
    snapshot = ProfileSnapshot(label="AVEP", input_name="ref",
                               threshold=None, total_steps=10)
    snapshot.blocks[0] = BlockProfile(0, use=10, taken=0)
    restored = snapshot_from_dict(snapshot_to_dict(snapshot))
    assert restored.threshold is None
    assert not restored.regions
