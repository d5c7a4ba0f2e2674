"""Fault tolerance: crash recovery, retries, timeouts and crash-safe caching.

The load-bearing guarantees of :mod:`repro.harness.faults` and the
resilient dispatcher: a worker crash rebuilds the pool and resubmits
only the lost jobs, a hang is killed and quarantined after
``job_timeout`` while its pool-mates are rescued, a benchmark that
exhausts its retry budget gets one inline fallback attempt before the
run completes *around* it — and no failure mode, including ``kill -9``
mid-write, can corrupt the cache or double-count a metric.
"""

import json
import os
import shutil

import pytest

from repro.harness import run_full_study
from repro.harness.faults import (HANG_SECONDS_ENV, FaultPlan,
                                  FaultSpecError, InjectedFault, fire)
from repro.harness.pool import RetryPolicy, dedupe_names, dispatch_study_jobs
from repro.harness.results import (BenchmarkResult, PerfPoint, load_shard,
                                   save_shard, shard_filename)
from repro.harness.studyspec import DEFAULT_RETRIES, StudySpec, resolve_spec
from repro.ioutil import atomic_write_text
from repro.obs import counter_value

KWARGS = dict(thresholds=[5, 50], steps_scale=0.02, include_perf=False)

#: A long injected "hang" that any test timeout comfortably beats.
HANG = "30"


def _dispatch(names, plan, retries=2, job_timeout=None, jobs=2):
    """Run the dispatcher with zero backoff (tests shouldn't sleep)."""
    policy = RetryPolicy(retries=retries, job_timeout=job_timeout,
                         backoff=0.0)
    return dispatch_study_jobs(names, StudySpec(jobs=jobs, **KWARGS),
                               policy=policy, plan=plan)


def _identical_bytes(results_a, results_b, tmp_path):
    """Byte-compare two StudyResults after manifest normalisation."""
    paths = []
    for i, results in enumerate((results_a, results_b)):
        manifest, results.manifest = results.manifest, None
        path = str(tmp_path / f"cmp{i}.json")
        results.save(path)
        results.manifest = manifest
        paths.append(path)
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        return a.read() == b.read()


# -- fault-spec parsing -------------------------------------------------------


def test_spec_parses_entries_and_counts():
    plan = FaultPlan.from_spec("gzip:crash:2, mcf:hang\nshard:torn-write:3")
    rules = {(r.target, r.kind): r.remaining for r in plan.rules}
    assert rules == {("gzip", "crash"): 2, ("mcf", "hang"): 1,
                     ("shard", "torn-write"): 3}


def test_spec_empty_and_unset():
    assert FaultPlan.from_spec(None).rules == []
    assert FaultPlan.from_spec("  ").rules == []
    assert FaultPlan.from_spec(resolve_spec().fault_spec).rules == []


def test_spec_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "art:error:4")
    plan = FaultPlan.from_spec(resolve_spec().fault_spec)
    assert plan.rules[0].kind == "error"
    assert plan.rules[0].remaining == 4


@pytest.mark.parametrize("spec", [
    "gzip",                    # no kind
    "gzip:crash:1:extra",      # too many fields
    "gzip:segfault",           # unknown kind
    "gzip:crash:zero",         # non-integer count
    "gzip:crash:0",            # count must be >= 1
    "gzip:torn-write",         # torn-write targets the shard writer
    "shard:crash",             # shard only takes torn-write
])
def test_spec_rejects_malformed_entries(spec):
    with pytest.raises(FaultSpecError):
        FaultPlan.from_spec(spec)


def test_draw_consumes_tokens_and_counts():
    plan = FaultPlan.from_spec("gzip:crash:2")
    injected = counter_value("faults.injected.crash")
    assert plan.draw("gzip") == "crash"
    assert plan.draw("gzip") == "crash"
    assert plan.draw("gzip") is None  # budget spent
    assert plan.draw("art") is None   # wrong target
    assert counter_value("faults.injected.crash") == injected + 2


def test_refund_returns_token_to_the_plan():
    plan = FaultPlan.from_spec("mcf:hang:1")
    refunded = counter_value("faults.refunded")
    assert plan.draw("mcf") == "hang"
    assert plan.draw("mcf") is None
    plan.refund("mcf", "hang")
    assert counter_value("faults.refunded") == refunded + 1
    assert plan.draw("mcf") == "hang"  # the schedule survives


def test_draw_torn_write_and_any_hangs():
    plan = FaultPlan.from_spec("shard:torn-write:1,mcf:hang:1")
    assert plan.any_hangs()
    assert plan.draw_torn_write()
    assert not plan.draw_torn_write()
    plan.draw("mcf")
    assert not plan.any_hangs()


def test_fire_inline_raises_instead_of_killing_the_parent():
    # Outside a pool worker every fault kind degrades to an exception —
    # an injected "crash" must never os._exit the test process.
    for kind in ("crash", "hang", "error"):
        with pytest.raises(InjectedFault):
            fire(kind, "gzip")
    with pytest.raises(ValueError, match="unknown fault kind"):
        fire("segfault", "gzip")


# -- policy knob resolution ---------------------------------------------------


def test_resolve_retries(monkeypatch):
    assert resolve_spec().retries == DEFAULT_RETRIES
    assert resolve_spec(retries=0).retries == 0
    monkeypatch.setenv("REPRO_RETRIES", "5")
    assert resolve_spec().retries == 5
    assert resolve_spec(retries=1).retries == 1  # explicit beats the env
    monkeypatch.setenv("REPRO_RETRIES", "nope")
    with pytest.raises(ValueError, match="must be an integer"):
        resolve_spec()
    with pytest.raises(ValueError, match=">= 0"):
        resolve_spec(retries=-1)


def test_resolve_job_timeout(monkeypatch):
    assert resolve_spec().job_timeout is None
    assert resolve_spec(job_timeout=2.5).job_timeout == 2.5
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "7.5")
    assert resolve_spec().job_timeout == 7.5
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "soon")
    with pytest.raises(ValueError, match="must be a number"):
        resolve_spec()
    with pytest.raises(ValueError, match="> 0"):
        resolve_spec(job_timeout=0)


def test_retry_policy_backoff_grows_and_caps():
    policy = RetryPolicy(backoff=0.1, backoff_cap=0.35)
    assert policy.delay(0) == 0.0
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.2)
    assert policy.delay(5) == pytest.approx(0.35)  # capped
    assert RetryPolicy(backoff=0.0).delay(3) == 0.0


# -- atomic cache writes (satellite: non-atomic save) -------------------------


def test_atomic_write_replaces_only_complete_files(tmp_path):
    path = str(tmp_path / "out.json")
    atomic_write_text(path, "old-content")
    atomic_write_text(path, "new-content-that-is-longer", tear=True)
    # The tear left the destination untouched and a partial temp behind —
    # exactly the debris of a kill -9 mid-write.
    with open(path) as f:
        assert f.read() == "old-content"
    debris = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert len(debris) == 1
    # The next (healthy) writer simply wins; no unrecoverable state.
    atomic_write_text(path, "recovered")
    with open(path) as f:
        assert f.read() == "recovered"


def test_torn_shard_write_recovers_on_next_run(tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    monkeypatch.setenv("REPRO_FAULT_SPEC", "shard:torn-write:1")
    first = run_full_study(names=["art", "gzip"], cache_dir=cache_dir,
                           jobs=1, **KWARGS)
    # art's shard write (the first) was torn: no shard file, no tear.
    confkey = StudySpec(**KWARGS).config_key()
    assert not os.path.exists(
        os.path.join(cache_dir, shard_filename("art", confkey)))
    assert os.path.exists(
        os.path.join(cache_dir, shard_filename("gzip", confkey)))
    # A fault-free rerun recomputes exactly the missing shard and agrees.
    monkeypatch.delenv("REPRO_FAULT_SPEC")
    second = run_full_study(names=["art", "gzip"], cache_dir=cache_dir,
                            jobs=1, **KWARGS)
    assert second.manifest["cached_benchmarks"] == ["gzip"]
    assert first.benchmarks["art"].sd_bp == second.benchmarks["art"].sd_bp


# -- shard payload validation (satellite: filename trusted blindly) -----------


def test_load_shard_rejects_mismatched_payload(tmp_path):
    result = BenchmarkResult(
        name="art", suite="fp", thresholds=[5], sd_bp={5: 0.1},
        bp_mismatch={5: 0.0}, sd_cp={5: None}, sd_lp={5: None},
        lp_mismatch={5: None}, train_sd_bp=0.2, train_bp_mismatch=0.1,
        train_sd_cp=None, train_sd_lp=None, profiling_ops={5: 10},
        train_ops=100, avep_ops=5)
    path = str(tmp_path / shard_filename("gzip", "fp123"))
    save_shard(path, result, "fp123", 1.0)
    # The filename says gzip, the payload says art: never trusted.
    with pytest.raises(ValueError, match="shard benchmark mismatch"):
        load_shard(path, expect_name="gzip", expect_fingerprint="fp123")
    with pytest.raises(ValueError, match="shard fingerprint mismatch"):
        load_shard(path, expect_name="art", expect_fingerprint="other")
    loaded, seconds = load_shard(path, expect_name="art",
                                 expect_fingerprint="fp123")
    assert loaded.name == "art" and seconds == 1.0


def test_load_shard_rejects_lying_payload_header(tmp_path):
    # A payload whose header matches but whose embedded result does not
    # (a hand-edited or spliced file) is still rejected.
    path = str(tmp_path / "shard.json")
    payload = {"version": 6, "benchmark": "gzip", "fingerprint": "fp",
               "seconds": 1.0,
               "result": {"name": "art", "suite": "fp", "thresholds": [],
                          "sd_bp": {}, "bp_mismatch": {}, "sd_cp": {},
                          "sd_lp": {}, "lp_mismatch": {},
                          "train_sd_bp": None, "train_bp_mismatch": None,
                          "train_sd_cp": None, "train_sd_lp": None,
                          "profiling_ops": {}, "train_ops": 0,
                          "avep_ops": 0, "num_regions": {}, "perf": {}}}
    with open(path, "w") as f:
        json.dump(payload, f)
    with pytest.raises(ValueError, match="shard result mismatch"):
        load_shard(path, expect_name="gzip", expect_fingerprint="fp")


def test_misfiled_shard_is_stale_and_recomputed(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = run_full_study(names=["art", "gzip"], cache_dir=cache_dir,
                           jobs=1, **KWARGS)
    confkey = StudySpec(**KWARGS).config_key()
    # Copy art's shard over gzip's: the filename now lies.
    shutil.copyfile(
        os.path.join(cache_dir, shard_filename("art", confkey)),
        os.path.join(cache_dir, shard_filename("gzip", confkey)))
    for fname in os.listdir(cache_dir):
        if fname.startswith("study-"):
            os.remove(os.path.join(cache_dir, fname))
    stale = counter_value("cache.shard.stale")
    second = run_full_study(names=["art", "gzip"], cache_dir=cache_dir,
                            jobs=1, **KWARGS)
    assert counter_value("cache.shard.stale") == stale + 1
    assert second.manifest["cached_benchmarks"] == ["art"]
    # gzip was recomputed, not served art's numbers under its name.
    assert second.benchmarks["gzip"].sd_bp == \
        first.benchmarks["gzip"].sd_bp


# -- duplicate names + perf_relative guard (satellite) ------------------------


def test_dedupe_names_warns_and_counts():
    dropped = counter_value("study.duplicate_names")
    assert dedupe_names(["gzip", "art", "gzip", "gzip"]) == ["gzip", "art"]
    assert counter_value("study.duplicate_names") == dropped + 2
    assert dedupe_names(["art"]) == ["art"]
    assert counter_value("study.duplicate_names") == dropped + 2


def test_run_full_study_drops_duplicates():
    results = run_full_study(names=["gzip", "gzip"], cache_dir=None,
                             jobs=1, **KWARGS)
    assert list(results.benchmarks) == ["gzip"]
    assert results.manifest["benchmarks"] == ["gzip"]


def test_perf_relative_zero_total_yields_none():
    point = dict(unoptimized=0.0, optimized=0.0, side_exits=0.0,
                 translation=0.0, num_side_exits=0, optimized_fraction=0.0)
    result = BenchmarkResult(
        name="x", suite="int", thresholds=[1, 5], sd_bp={}, bp_mismatch={},
        sd_cp={}, sd_lp={}, lp_mismatch={}, train_sd_bp=None,
        train_bp_mismatch=None, train_sd_cp=None, train_sd_lp=None,
        profiling_ops={}, train_ops=0, avep_ops=0,
        perf={1: PerfPoint(total=10.0, **point),
              5: PerfPoint(total=0.0, **point)})
    assert result.perf_relative() == {1: 1.0, 5: None}
    with pytest.raises(KeyError):
        result.perf_relative(base_threshold=99)


# -- crash recovery (tentpole) ------------------------------------------------


def test_crash_breaks_pool_then_retry_succeeds():
    names = ["art", "gzip", "swim"]
    rebuilds = counter_value("faults.pool_rebuild")
    charged = counter_value("retry.crash")
    absorbed = []
    policy = RetryPolicy(retries=2, backoff=0.0)
    dispatch = dispatch_study_jobs(
        names, StudySpec(jobs=2, **KWARGS), policy=policy,
        plan=FaultPlan.from_spec("gzip:crash:1"),
        on_output=lambda output: absorbed.append(output.name))
    assert set(dispatch.outputs) == set(names)
    assert dispatch.failures == {}
    # The pool was rebuilt and only the lost jobs were charged/resubmitted
    # (at most the two in-flight at the break, never the completed ones):
    assert counter_value("faults.pool_rebuild") >= rebuilds + 1
    assert 1 <= counter_value("retry.crash") - charged <= 2
    # ...and no benchmark was absorbed twice.
    assert sorted(absorbed) == sorted(names)


def test_error_fault_retries_without_pool_rebuild():
    rebuilds = counter_value("faults.pool_rebuild")
    errors = counter_value("retry.error")
    dispatch = _dispatch(["art", "gzip"], FaultPlan.from_spec("gzip:error:1"))
    assert set(dispatch.outputs) == {"art", "gzip"}
    assert dispatch.failures == {}
    # An in-worker exception is an ordinary failure: the pool survives.
    assert counter_value("faults.pool_rebuild") == rebuilds
    assert counter_value("retry.error") == errors + 1


def test_exhausted_retries_fall_back_inline():
    # Three crashes burn the whole pool budget (retries=2); the fourth,
    # inline, attempt draws no token and succeeds.
    fallback = counter_value("faults.fallback.success")
    dispatch = _dispatch(["art", "gzip"],
                         FaultPlan.from_spec("gzip:crash:3"), retries=2)
    assert set(dispatch.outputs) == {"art", "gzip"}
    assert dispatch.failures == {}
    assert counter_value("faults.fallback.success") >= fallback + 1


def test_hang_is_killed_and_quarantined(monkeypatch):
    monkeypatch.setenv(HANG_SECONDS_ENV, HANG)
    timeouts = counter_value("faults.timeout")
    quarantined = counter_value("faults.quarantined")
    dispatch = _dispatch(["art", "gzip"], FaultPlan.from_spec("gzip:hang:1"),
                         job_timeout=2.0)
    # The hung benchmark is quarantined without wasting retry windows;
    # its innocent pool-mate still completes.
    assert set(dispatch.outputs) == {"art"}
    failure = dispatch.failures["gzip"]
    assert failure.reason == "timeout"
    assert "job timeout" in failure.error
    assert counter_value("faults.timeout") == timeouts + 1
    assert counter_value("faults.quarantined") == quarantined + 1


def test_inline_path_retries_and_quarantines():
    # jobs=1 exercises the serial dispatcher under the same policy.
    resubmitted = counter_value("retry.resubmitted")
    dispatch = _dispatch(["gzip"], FaultPlan.from_spec("gzip:error:1"),
                         retries=1, jobs=1)
    assert set(dispatch.outputs) == {"gzip"}
    assert counter_value("retry.resubmitted") == resubmitted + 1

    dispatch = _dispatch(["art", "gzip"],
                         FaultPlan.from_spec("gzip:error:9"), retries=1,
                         jobs=1)
    assert set(dispatch.outputs) == {"art"}
    assert dispatch.failures["gzip"].reason == "error"
    assert dispatch.failures["gzip"].attempts == 2


# -- quarantine end-to-end ----------------------------------------------------


def test_quarantined_run_completes_with_manifest_and_no_aggregate(
        tmp_path, monkeypatch):
    cache_dir = str(tmp_path / "cache")
    monkeypatch.setenv("REPRO_FAULT_SPEC", "gzip:error:9")
    results = run_full_study(names=["art", "gzip"], cache_dir=cache_dir,
                             jobs=1, retries=1, **KWARGS)
    assert set(results.benchmarks) == {"art"}
    failed = results.manifest["failed_benchmarks"]
    assert failed["gzip"]["reason"] == "error"
    assert failed["gzip"]["attempts"] == 2
    # The aggregate is withheld (a "hit" would never retry gzip), but
    # art's shard persists, so the healthy rerun only recomputes gzip.
    assert not any(f.startswith("study-") for f in os.listdir(cache_dir))
    monkeypatch.delenv("REPRO_FAULT_SPEC")
    retry = run_full_study(names=["art", "gzip"], cache_dir=cache_dir,
                           jobs=1, **KWARGS)
    assert set(retry.benchmarks) == {"art", "gzip"}
    assert retry.manifest["failed_benchmarks"] == {}
    assert retry.manifest["cached_benchmarks"] == ["art"]
    assert any(f.startswith("study-") for f in os.listdir(cache_dir))


def test_acceptance_crash_retried_hang_quarantined_bytes_identical(
        tmp_path, monkeypatch):
    # The issue's acceptance scenario: one crash + one hang injected into
    # a --jobs 4 run.  The study completes, quarantines only the hung
    # benchmark, retries the crashed one successfully, and the surviving
    # figure data is byte-identical to a fault-free --jobs 1 run.
    names = ["art", "gzip", "mcf", "swim"]
    serial = run_full_study(names=names, cache_dir=None, jobs=1, **KWARGS)

    monkeypatch.setenv(HANG_SECONDS_ENV, HANG)
    monkeypatch.setenv("REPRO_FAULT_SPEC", "gzip:crash:1,mcf:hang:1")
    faulted = run_full_study(names=names, cache_dir=None, jobs=4,
                             retries=2, job_timeout=2.0, **KWARGS)

    assert set(faulted.benchmarks) == {"art", "gzip", "swim"}
    assert list(faulted.manifest["failed_benchmarks"]) == ["mcf"]
    assert faulted.manifest["failed_benchmarks"]["mcf"]["reason"] \
        == "timeout"
    del serial.benchmarks["mcf"]
    assert _identical_bytes(serial, faulted, tmp_path)


def test_metrics_not_double_counted_across_retries():
    # A retried benchmark's replay counters must land exactly once: the
    # faulted run and the clean run agree on every replay signal.
    def _translated(spec):
        before = counter_value("replay.blocks_translated")
        dispatch = _dispatch(["gzip"], FaultPlan.from_spec(spec),
                             retries=2, jobs=1)
        assert set(dispatch.outputs) == {"gzip"}
        # Fold the worker-shipped state the way the runner does.
        from repro.obs import merge_state
        merge_state(dispatch.outputs["gzip"].metrics)
        return counter_value("replay.blocks_translated") - before

    clean = _translated("")
    assert clean > 0
    assert _translated("gzip:error:2") == clean


# -- CLI surface --------------------------------------------------------------


def test_cli_parses_retry_flags():
    from repro.harness.cli import build_parser
    args = build_parser().parse_args([])
    assert args.retries is None and args.job_timeout is None
    args = build_parser().parse_args(["--retries", "0",
                                      "--job-timeout", "2.5"])
    assert args.retries == 0
    assert args.job_timeout == 2.5


def test_cli_exit_code_on_quarantine(capsys, monkeypatch):
    from repro.harness.cli import EXIT_QUARANTINE, main
    monkeypatch.setenv("REPRO_FAULT_SPEC", "gzip:error:9")
    code = main(["--benchmarks", "gzip", "--quick", "--no-perf",
                 "--no-cache", "--stats", "--jobs", "1", "--retries", "0"])
    assert code == EXIT_QUARANTINE == 3
    err = capsys.readouterr().err
    assert "quarantined: gzip" in err
    assert "error after 1 attempts" in err
