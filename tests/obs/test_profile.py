"""Phase profiler: exclusive-time sweep, coverage, sampling, gating."""

import pathlib
import re

import pytest

import repro
from repro.obs.profile import (PHASE_OF_SPAN, PhaseProfile, phase_of,
                               profiling_enabled, reset_sampling,
                               sampled_span, set_profiling)
from repro.obs.registry import disable, enable
from repro.obs.spans import NULL_SPAN, clear_trace, span, trace_events


def _event(name, ts, dur, pid=1, tid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid, "args": {}}


@pytest.fixture(autouse=True)
def _profiling_off():
    yield
    set_profiling(False)
    reset_sampling()


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
    # some span(...) or sampled_span(...) call in the package, so the
    # table documents no span that does not exist.
    root = pathlib.Path(repro.__file__).parent
    emitted = set()
    for path in root.rglob("*.py"):
        emitted.update(re.findall(r"\b(?:sampled_)?span\(\s*\"([^\"]+)\"",
                                  path.read_text()))
    assert sorted(set(PHASE_OF_SPAN) - emitted) == []


# -- profiling mode and sampling ----------------------------------------------


def test_profile_span_gated_on_profiling_mode():
    set_profiling(False)
    assert sampled_span("region.form") is NULL_SPAN
    set_profiling(True)
    assert profiling_enabled()
    reset_sampling()
    clear_trace()
    with sampled_span("region.form", blocks=3):
        pass
    assert [e["name"] for e in trace_events()] == ["region.form"]


def test_profiling_requires_registry_enabled():
    set_profiling(True)
    disable()
    try:
        assert not profiling_enabled()
        assert sampled_span("region.form") is NULL_SPAN
    finally:
        enable()


def test_sampled_span_every_nth_deterministic(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE_SAMPLE", "3")
    set_profiling(True)

    def recorded_pattern():
        reset_sampling()
        clear_trace()
        for _ in range(7):
            with sampled_span("region.form"):
                pass
        return len(trace_events())

    # Calls 0, 3, 6 record: identical on every run — no randomness.
    assert recorded_pattern() == 3
    assert recorded_pattern() == 3


def test_sampled_span_counts_per_site(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE_SAMPLE", "2")
    set_profiling(True)
    reset_sampling()
    clear_trace()
    for _ in range(2):
        with sampled_span("site.a"):
            pass
        with sampled_span("site.b"):
            pass
    names = sorted(e["name"] for e in trace_events())
    assert names == ["site.a", "site.b"]  # each site's first call

