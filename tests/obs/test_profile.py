"""Phase profiler: exclusive-time sweep, coverage, span-name mapping."""

import pathlib
import re

import pytest

import repro
from repro.obs.profile import PHASE_OF_SPAN, PhaseProfile, phase_of


def _event(name, ts, dur, pid=1, tid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid, "args": {}}


# -- the exclusive-time sweep -------------------------------------------------


def test_exclusive_time_subtracts_direct_children():
    # parent [0, 100], children [10, 30] and [50, 20] -> exclusive 50.
    profile = PhaseProfile.from_events([
        _event("perf_model", 0, 100),
        _event("cache.save_shard", 10, 30),
        _event("cache.load_shard", 50, 20),
    ])
    assert profile.total_seconds == pytest.approx(100 / 1e6)
    assert profile.phases["perfmodel"] == pytest.approx(50 / 1e6)
    assert profile.phases["cache-io"] == pytest.approx(50 / 1e6)


def test_grandchildren_charge_their_parent_not_the_root():
    # root [0,100] > mid [10,60] > leaf [20,30]: root excl 40, mid 30.
    profile = PhaseProfile.from_events([
        _event("full_study", 0, 100),
        _event("study_benchmark", 10, 60),
        _event("record_traces", 20, 30),
    ])
    assert profile.phases["harness"] == pytest.approx((40 + 30) / 1e6)
    assert profile.phases["walker"] == pytest.approx(30 / 1e6)
    # Attribution is complete: phases sum to the root total.
    assert sum(profile.phases.values()) == \
        pytest.approx(profile.total_seconds)


def test_lanes_are_independent_and_sum():
    profile = PhaseProfile.from_events([
        _event("replay.run", 0, 50, pid=1),
        _event("replay.run", 0, 70, pid=2),
    ])
    assert profile.total_seconds == pytest.approx(120 / 1e6)
    assert len(profile.lanes) == 2


def test_sibling_roots_in_one_lane_both_count():
    profile = PhaseProfile.from_events([
        _event("replay.run", 0, 50),
        _event("perf_model", 60, 40),
    ])
    assert profile.total_seconds == pytest.approx(90 / 1e6)
    assert profile.coverage == pytest.approx(1.0)


def test_coverage_excludes_harness_and_other():
    profile = PhaseProfile.from_events([
        _event("full_study", 0, 100),      # harness
        _event("replay.run", 0, 60),       # named
        _event("test.unmapped", 60, 20),   # other
    ])
    # replay.run and test.unmapped nest inside full_study.
    assert profile.total_seconds == pytest.approx(100 / 1e6)
    assert profile.coverage == pytest.approx(0.6)
    assert phase_of("test.unmapped") == "other"


def test_to_dict_round_trips_through_render():
    profile = PhaseProfile.from_events([
        _event("replay.run", 0, 60),
        _event("perf_model", 70, 40),
    ])
    data = profile.to_dict()
    assert data["coverage"] == pytest.approx(1.0)
    assert set(data["phases"]) == {"replay-walk", "perfmodel"}
    text = PhaseProfile.render(data)
    assert "replay-walk" in text and "perfmodel" in text
    assert "100.0% attributed" in text


def test_hotspots_rank_by_inclusive_time():
    profile = PhaseProfile.from_events([
        _event("perf_model", 0, 100),
        _event("replay.run", 10, 80),
    ])
    names = [name for name, _, _ in profile.hotspots()]
    assert names == ["perf_model", "replay.run"]


def test_every_harness_span_name_maps_to_a_phase():
    # The map itself must stay total over the names the harness emits;
    # a rename that misses this table would silently lower coverage.
    for name in ("full_study", "study_benchmark", "record_traces",
                 "threshold_sweep", "perf_model", "dispatch.order",
                 "dispatch.wait", "dispatch.merge", "cache.save_shard"):
        assert name in PHASE_OF_SPAN


def test_every_phase_span_name_is_emitted():
    # The reverse: each mapped name is the literal first argument of
    # some span(...) call in the package, so the table documents no
    # span that does not exist.
    root = pathlib.Path(repro.__file__).parent
    emitted = set()
    for path in root.rglob("*.py"):
        emitted.update(re.findall(r"\bspan\(\s*\"([^\"]+)\"",
                                  path.read_text()))
    assert sorted(set(PHASE_OF_SPAN) - emitted) == []
