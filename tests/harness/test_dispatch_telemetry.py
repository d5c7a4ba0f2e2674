"""Dispatch telemetry: per-job timelines, manifest sections, trace lanes."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.harness import run_full_study
from repro.harness.faults import FaultPlan
from repro.harness.pool import RetryPolicy, dispatch_study_jobs
from repro.harness.studyspec import StudySpec
from repro.obs.dispatch import SEGMENTS, JobTimeline, summarize
from repro.obs.profile import PHASE_OF_SPAN
from repro.obs.registry import counter_value
from repro.obs.spans import clear_trace, trace_events, write_trace

KWARGS = dict(thresholds=[5, 50], steps_scale=0.02, include_perf=False)

#: Full-length runs for the coverage floor: a few milliseconds of the
#: host descheduling the test between spans must stay a small share of
#: the study (0.17-0.27 s on a 2-core VM, against 25-100 ms at
#: ``KWARGS``).
FULL_LENGTH = dict(KWARGS, steps_scale=1.0)


def _dispatch(names, jobs):
    policy = RetryPolicy(retries=0, backoff=0.0)
    return dispatch_study_jobs(names, StudySpec(jobs=jobs, **KWARGS),
                               policy=policy, plan=FaultPlan())


# -- JobTimeline arithmetic ---------------------------------------------------


def test_timeline_totals_and_segments():
    record = JobTimeline(bench="gzip", serialize_seconds=0.1,
                         queue_seconds=0.2, spawn_seconds=0.15,
                         execute_seconds=1.0, transfer_seconds=0.05,
                         merge_seconds=0.05, payload_bytes=420)
    # spawn is a *slice of* queue, not an additional segment.
    assert record.total_seconds == pytest.approx(1.4)
    assert record.overhead_seconds == pytest.approx(0.4)
    assert record.segment("spawn") == 0.15
    data = record.to_dict()
    assert data["total_seconds"] == pytest.approx(1.4)
    assert "extra" not in data


def test_summarize_decomposes_wall_time():
    records = [
        JobTimeline(bench="a", execute_seconds=2.0, queue_seconds=0.5),
        JobTimeline(bench="b", execute_seconds=2.0, outcome="error"),
    ]
    summary = summarize(records, jobs=2, wall_seconds=2.5)
    assert summary["outcomes"] == {"ok": 1, "error": 1}
    assert summary["execute_seconds"] == 4.0
    assert summary["overhead_seconds"] == 0.5
    assert summary["effective_parallelism"] == 1.6
    assert set(summary["segments_seconds"]) == set(SEGMENTS)
    assert len(summary["records_detail"]) == 2


# -- dispatcher records -------------------------------------------------------


def test_inline_dispatch_records_timelines():
    result = _dispatch(["gzip"], jobs=1)
    (record,) = result.records
    assert record.mode == "inline"
    assert record.outcome == "ok"
    assert record.bench == "gzip"
    assert record.worker_pid == os.getpid()
    assert record.execute_seconds > 0
    assert record.queue_seconds == 0  # nothing queues in-process


def test_pool_dispatch_records_full_segments():
    result = _dispatch(["gzip", "mcf"], jobs=2)
    assert {r.bench for r in result.records} == {"gzip", "mcf"}
    for record in result.records:
        assert record.mode == "pool"
        assert record.outcome == "ok"
        assert record.worker_pid not in (None, os.getpid())
        assert record.payload_bytes > 0
        assert record.serialize_seconds > 0
        assert record.execute_seconds > 0
        assert record.queue_seconds >= 0
        assert 0 <= record.spawn_seconds <= record.queue_seconds + 1e-9
        assert record.transfer_seconds >= 0


# -- the manifest -------------------------------------------------------------


def test_manifest_carries_dispatch_and_profile_sections():
    results = run_full_study(names=["gzip", "mcf"], cache_dir=None,
                             jobs=2, **FULL_LENGTH)
    manifest = results.manifest
    dispatch = manifest["dispatch"]
    assert dispatch["jobs"] == 2
    assert dispatch["outcomes"] == {"ok": 2}
    assert dispatch["segments_seconds"]["execute"] > 0
    assert dispatch["segments_seconds"]["merge"] > 0  # runner attached it
    benches = {r["bench"] for r in dispatch["records_detail"]}
    assert benches == {"gzip", "mcf"}

    profile = manifest["profile"]
    assert profile["total_seconds"] > 0
    assert profile["coverage"] > 0.85
    assert "replay-walk" in profile["phases"]
    assert "region-formation" in profile["phases"]


def test_serial_manifest_attributes_without_double_counting():
    results = run_full_study(names=["gzip", "mcf"], cache_dir=None, jobs=1,
                             **FULL_LENGTH)
    profile = results.manifest["profile"]
    # Inline job spans re-nest under full_study: one lane, and the
    # total is the run's wall time once, not twice.
    assert profile["lanes"] == 1
    assert profile["total_seconds"] <= \
        results.manifest["total_seconds"] * 1.5
    assert profile["coverage"] > 0.85


def test_cold_process_serial_coverage():
    """In a fresh process, building the benchmark before its study (suite
    imports, CFG construction) runs in named spans: ``dispatch.order``,
    which reads each benchmark's step budget, and ``workload.build``, so
    attribution stays above the bar without a warm interpreter."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = ("from repro.harness import run_full_study\n"
            "r = run_full_study(names=['gzip'], thresholds=[5, 50], "
            "steps_scale=0.02, include_perf=False, jobs=1, "
            "cache_dir=None)\n"
            "p = r.manifest['profile']\n"
            "print(p['coverage'], p['phases']['workload-build']['spans'])\n")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    coverage, builds = out.stdout.split()
    assert float(coverage) > 0.85
    assert int(builds) == 1
    assert PHASE_OF_SPAN["workload.build"] == "workload-build"


def test_walker_counters_reach_the_study():
    """A serial two-benchmark study reports the walker's decision,
    window, exact-clip window and speculation-waste counters."""
    names = ["kernel.vector.decisions", "kernel.vector.windows",
             "kernel.vector.windows.exact",
             "kernel.vector.decisions.discarded"]
    before = {name: counter_value(name) for name in names}
    results = run_full_study(names=["gzip", "art"], cache_dir=None, jobs=1,
                             **KWARGS)
    delta = {name: counter_value(name) - before[name] for name in names}
    counters = results.manifest["metrics"]["counters"]
    assert all(name in counters for name in names)
    assert delta["kernel.vector.windows"] > 0
    assert delta["kernel.vector.decisions"] > 0
    assert delta["kernel.vector.decisions.discarded"] >= 0
    assert 0 <= delta["kernel.vector.windows.exact"] \
        <= delta["kernel.vector.windows"]


def test_walk_counts_come_from_the_walker():
    """A serial gzip+art study reads every whole-run count off the
    walker's decisions: no per-step counting pass, one count-only train
    walk per benchmark, and one event index per ref trace."""
    names = ["trace.count_passes", "kernel.vector.count_runs",
             "trace.index_builds"]
    before = {name: counter_value(name) for name in names}
    results = run_full_study(names=["gzip", "art"], cache_dir=None, jobs=1,
                             **KWARGS)
    delta = {name: counter_value(name) - before[name] for name in names}
    assert delta == {"trace.count_passes": 0,
                     "kernel.vector.count_runs": 2,
                     "trace.index_builds": 2}
    assert all(name in results.manifest["metrics"]["counters"]
               for name in names)


def test_perf_study_never_decodes_a_trace():
    """With the perf model on, a serial gzip+art study still reads every
    ref trace through its decision log: the event index and Figure 17's
    cost tables are built without decoding a per-step array."""
    names = ["trace.decodes", "trace.index_builds", "trace.count_passes"]
    before = {name: counter_value(name) for name in names}
    results = run_full_study(names=["gzip", "art"], cache_dir=None, jobs=1,
                             **dict(KWARGS, include_perf=True))
    delta = {name: counter_value(name) - before[name] for name in names}
    assert delta == {"trace.decodes": 0, "trace.index_builds": 2,
                     "trace.count_passes": 0}
    assert all(name in results.manifest["metrics"]["counters"]
               for name in names)
    assert all(result.perf for result in results.benchmarks.values())


def test_cached_run_skips_dispatch_section(tmp_path):
    cache = str(tmp_path / "cache")
    run_full_study(names=["gzip"], cache_dir=cache, jobs=1, **KWARGS)
    again = run_full_study(names=["gzip"], cache_dir=cache, jobs=1,
                           **KWARGS)
    # A pure cache hit dispatches nothing; the persisted manifest is the
    # original run's (which does carry its own dispatch summary).
    assert again.manifest["dispatch"] is not None
    assert again.manifest["cached_benchmarks"] == []


# -- region formation is its own phase ----------------------------------------


def test_profile_mode_sharpens_attribution():
    # Every serial study times region formation: the span is recorded
    # unconditionally, so the manifest's phase table always names it.
    clear_trace()
    results = run_full_study(names=["gzip"], cache_dir=None, jobs=1,
                             **KWARGS)
    assert "region.form" in {e["name"] for e in trace_events()}
    assert "region-formation" in results.manifest["profile"]["phases"]


def test_only_ref_traces_build_an_event_index():
    """Only the ref trace is replayed, so a two-benchmark serial study
    builds two indexes (the train traces are only counted), and the
    lazy builds still charge the walker phase."""
    clear_trace()
    before = counter_value("trace.index_builds")
    # Long enough runs that fixed harness overhead stays under 5%.
    results = run_full_study(names=["gzip", "mcf"], cache_dir=None,
                             jobs=1, **FULL_LENGTH)
    assert counter_value("trace.index_builds") - before == 2
    assert PHASE_OF_SPAN["trace.index"] == "walker"
    assert sum(e["name"] == "trace.index" for e in trace_events()) == 2
    assert results.manifest["profile"]["coverage"] >= 0.95


# -- Chrome trace lanes -------------------------------------------------------


def test_workers_render_as_distinct_trace_lanes(tmp_path):
    clear_trace()
    run_full_study(names=["gzip", "mcf"], cache_dir=None, jobs=2,
                   **KWARGS)
    own = os.getpid()
    pids = {e["pid"] for e in trace_events()}
    assert own in pids
    assert len(pids) >= 2  # at least one separate worker lane

    path = str(tmp_path / "trace.json")
    write_trace(path)
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    meta = [e for e in events if e.get("ph") == "M"]
    names = {e["args"]["name"] for e in meta
             if e["name"] == "process_name"}
    assert any(label.startswith("worker-") for label in names)
    # Metadata lanes only name *other* processes, never the parent row.
    assert all(e["pid"] != own for e in meta)
    # Duration events still come first (consumers index traceEvents[0]).
    assert events[0]["ph"] == "X"
