"""Observability under failure: flight dumps, timelines and counters
survive retries, timeouts and quarantine without double-counting."""

import json
import os

from repro.harness import run_full_study
from repro.harness.faults import FaultPlan
from repro.harness.pool import RetryPolicy, dispatch_study_jobs
from repro.harness.studyspec import StudySpec
from repro.obs import counter_value

KWARGS = dict(thresholds=[5, 50], steps_scale=0.02, include_perf=False)


def _dispatch(names, plan, retries=2, job_timeout=None, jobs=2):
    policy = RetryPolicy(retries=retries, job_timeout=job_timeout,
                         backoff=0.0)
    return dispatch_study_jobs(names, StudySpec(jobs=jobs, **KWARGS),
                               policy=policy, plan=plan)


# -- flight rings travel with failures ----------------------------------------


def test_worker_error_ships_its_flight_ring():
    # One error token: the pool attempt raises and ships its ring; the
    # inline fallback then succeeds without touching it.  Two names so
    # the dispatcher actually engages the pool (one name runs inline).
    plan = FaultPlan.from_spec("gzip:error:1")
    result = _dispatch(["art", "gzip"], plan, retries=0)
    assert "gzip" in result.outputs  # fallback rescued it
    ring = result.flights.get("gzip")
    assert ring, "raising worker should ship its flight ring"
    starts = [e for e in ring
              if e["kind"] == "log" and e["name"] == "job start"]
    assert starts and starts[0]["bench"] == "gzip"
    assert all(e["pid"] != os.getpid() for e in ring)


def test_timeline_records_failed_attempts_without_double_count():
    # error:1 -> first attempt raises, retry succeeds: exactly one
    # "error" record and one "ok" record, never a refunded duplicate.
    plan = FaultPlan.from_spec("gzip:error:1")
    result = _dispatch(["gzip"], plan, retries=2)
    assert "gzip" in result.outputs
    outcomes = [r.outcome for r in result.records if r.bench == "gzip"]
    assert sorted(outcomes) == ["error", "ok"]
    attempts = [r.attempt for r in result.records if r.bench == "gzip"]
    assert sorted(attempts) == [1, 2]


def test_timeout_records_timeline_and_counters():
    # Timeouts only exist on the pool path (inline execution refuses to
    # sleep), so dispatch two names to get real workers.
    plan = FaultPlan.from_spec("gzip:hang:9")
    timeouts = counter_value("faults.timeout")
    result = _dispatch(["art", "gzip"], plan, retries=0, job_timeout=1.5)
    assert result.failures["gzip"].reason == "timeout"
    records = [r for r in result.records if r.bench == "gzip"]
    assert records and all(r.outcome == "timeout" for r in records)
    assert counter_value("faults.timeout") > timeouts
    assert "art" in result.outputs  # the pool-mate was rescued


# -- flight dumps on the run level --------------------------------------------


def test_quarantine_writes_flight_dump(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "gzip:error:9")
    flight_dir = str(tmp_path / "flight")
    results = run_full_study(names=["art", "gzip"], cache_dir=None,
                             jobs=2, retries=0, flight_dir=flight_dir,
                             **KWARGS)
    failed = results.manifest["failed_benchmarks"]["gzip"]
    path = failed["flight_record"]
    assert path and os.path.exists(path)
    assert os.path.dirname(path) == flight_dir
    with open(path) as handle:
        dump = json.load(handle)
    assert dump["benchmark"] == "gzip"
    assert dump["reason"] == "error"
    # retries=0: one pool attempt, then the last-resort inline fallback
    # (which also raises) — two attempts reach the quarantine record.
    assert dump["context"]["attempts"] == 2
    assert dump["worker_flight"], "error dumps carry the worker ring"
    assert counter_value("flight.dumps") >= 1
    # The surviving benchmark is untouched.
    assert "art" in results.benchmarks


def test_timeout_dump_has_no_worker_ring(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "gzip:hang:9")
    flight_dir = str(tmp_path / "flight")
    results = run_full_study(names=["art", "gzip"], cache_dir=None,
                             jobs=2, retries=0, job_timeout=1.5,
                             flight_dir=flight_dir, **KWARGS)
    path = results.manifest["failed_benchmarks"]["gzip"]["flight_record"]
    with open(path) as handle:
        dump = json.load(handle)
    assert dump["reason"] == "timeout"
    assert dump["worker_flight"] is None  # the worker never shipped
    assert dump["parent_flight"]          # but the parent's ring is there


def test_no_flight_dir_resolves_to_no_dump(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "gzip:error:9")
    results = run_full_study(names=["gzip"], cache_dir=None, jobs=2,
                             retries=0, **KWARGS)
    # cache_dir=None and no --flight-dir/env: library callers get no
    # surprise files, and the manifest says so.
    failed = results.manifest["failed_benchmarks"]["gzip"]
    assert failed["flight_record"] is None


def test_flight_dir_env_is_honoured(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "gzip:error:9")
    flight_dir = str(tmp_path / "from-env")
    monkeypatch.setenv("REPRO_FLIGHT_DIR", flight_dir)
    results = run_full_study(names=["gzip"], cache_dir=None, jobs=2,
                             retries=0, **KWARGS)
    path = results.manifest["failed_benchmarks"]["gzip"]["flight_record"]
    assert path and path.startswith(flight_dir)


# -- observability state isolation across retries -----------------------------


def test_successful_retry_does_not_leak_failed_attempt_metrics(
        monkeypatch):
    # Manifest metric snapshots are cumulative across the process, so
    # compare per-run *deltas*: a run with a failed-then-retried attempt
    # must add exactly what a clean run adds — the failed attempt's
    # partial metrics were discarded with the attempt.
    keys = ("replay.runs", "replay.blocks_translated")

    def deltas(run):
        before = {k: counter_value(k) for k in keys}
        results = run()
        return results, {k: counter_value(k) - before[k] for k in keys}

    _, clean_delta = deltas(lambda: run_full_study(
        names=["gzip"], cache_dir=None, jobs=2, **KWARGS))
    monkeypatch.setenv("REPRO_FAULT_SPEC", "gzip:error:1")
    faulted, fault_delta = deltas(lambda: run_full_study(
        names=["gzip"], cache_dir=None, jobs=2, retries=2, **KWARGS))
    assert "gzip" in faulted.benchmarks
    assert clean_delta["replay.runs"] > 0
    assert fault_delta == clean_delta
    dispatch = faulted.manifest["dispatch"]
    assert dispatch["outcomes"] == {"error": 1, "ok": 1}
