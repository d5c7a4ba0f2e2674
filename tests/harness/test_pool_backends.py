"""Pool backends: selection, equivalence, batching and warm reuse.

The load-bearing guarantee of :mod:`repro.harness.pool`: figure data is
byte-identical across every jobs × batch combination — the backends
differ only in transport cost.  On top of that, the dispatch
engine's failure semantics must be batch-aware (a failing member never
charges its batch-mates), warm pools must actually be reused, an
unpicklable job must fail fast with the original pickling error instead
of an opaque pool break, and a drawn fault token must be refunded when
the attempt dies of an unrelated cause before the fault fires.
"""

import pytest

from repro.dbt import DBTConfig
from repro.harness import run_full_study
from repro.harness.faults import FaultPlan
from repro.harness.pool import RetryPolicy, dispatch_study_jobs
from repro.harness.studyspec import StudySpec, resolve_spec
from repro.obs import counter_value

KWARGS = dict(thresholds=[5, 50], steps_scale=0.02, include_perf=False)


def _dispatch(names, plan=None, retries=2, jobs=2, batch=1, **overrides):
    policy = RetryPolicy(retries=retries, backoff=0.0)
    spec = StudySpec(jobs=jobs, batch=batch, **dict(KWARGS, **overrides))
    return dispatch_study_jobs(
        names, spec, policy=policy,
        plan=plan if plan is not None else FaultPlan.from_spec(None))


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


# -- knob resolution (satellite: empty-but-set env vars) ----------------------


def test_resolve_jobs_rejects_empty_env(monkeypatch):
    # An empty-but-set REPRO_JOBS is a broken shell expansion, and
    # silently running on every CPU is the worst possible reading.
    monkeypatch.setenv("REPRO_JOBS", "")
    with pytest.raises(ValueError, match="must be an integer"):
        resolve_spec()
    assert resolve_spec(jobs=2).jobs == 2  # explicit never consults the env


def test_resolve_batch_env_and_validation(monkeypatch):
    monkeypatch.delenv("REPRO_BATCH", raising=False)
    assert resolve_spec().batch == 1
    assert resolve_spec(batch=3).batch == 3
    monkeypatch.setenv("REPRO_BATCH", "4")
    assert resolve_spec().batch == 4
    monkeypatch.setenv("REPRO_BATCH", "")
    with pytest.raises(ValueError, match="must be an integer"):
        resolve_spec()
    with pytest.raises(ValueError, match=">= 1"):
        resolve_spec(batch=0)


def test_one_worker_runs_inline_whatever_the_batch():
    # The worker count picks the backend; a batch only coarsens the
    # process pool's dispatch unit, so one worker never starts a pool.
    results = run_full_study(names=["gzip", "art"], cache_dir=None, jobs=1,
                             batch=2, **KWARGS)
    assert results.manifest["pool"] == "inprocess"
    assert results.manifest["batch_size"] == 1
    dispatch = _dispatch(["gzip"], jobs=2, batch=2)  # one name: one worker
    assert dispatch.backend == "inprocess"
    assert {r.mode for r in dispatch.records} == {"inline"}


# -- backend equivalence (the non-negotiable invariant) -----------------------


def test_every_backend_produces_identical_bytes(tmp_path):
    names = ["gzip", "mcf", "art"]
    cells = [
        dict(jobs=1),                              # inprocess
        dict(jobs=2),                              # process
        dict(jobs=2, batch=2),
        dict(jobs=3, batch=1),
    ]
    runs = []
    deltas = []
    for cell in cells:
        translated = counter_value("replay.blocks_translated")
        results = run_full_study(names=names, cache_dir=None, **cell,
                                 **KWARGS)
        deltas.append(counter_value("replay.blocks_translated") -
                      translated)
        runs.append(results)
    baseline = runs[0]
    assert baseline.manifest["pool"] == "inprocess"
    for cell, results in zip(cells[1:], runs[1:]):
        assert _identical_bytes(baseline, results, tmp_path), cell
        assert results.manifest["pool"] == "process"
        assert results.manifest["batch_size"] == cell.get("batch", 1)
    # The observability merge is lossless: every cell lands exactly the
    # same replay counters in the parent registry.
    assert len(set(deltas)) == 1 and deltas[0] > 0


def test_batched_timelines_carry_backend_and_batch_size():
    results = run_full_study(names=["gzip", "mcf", "art"], cache_dir=None,
                             jobs=2, batch=2, **KWARGS)
    manifest = results.manifest
    assert manifest["pool"] == "process"
    assert manifest["batch_size"] == 2
    summary = manifest["dispatch"]
    assert summary["backends"] == {"process": 3}
    assert summary["max_batch_size"] == 2
    sizes = sorted(r["batch_size"] for r in summary["records_detail"])
    assert sizes == [1, 2, 2]  # two full members + the leftover
    assert all(r["backend"] == "process"
               for r in summary["records_detail"])


# -- batch failure semantics --------------------------------------------------


def test_error_inside_batch_spares_batch_mates():
    rebuilds = counter_value("faults.pool_rebuild")
    errors = counter_value("retry.error")
    dispatch = _dispatch(["art", "gzip", "mcf", "swim"],
                         plan=FaultPlan.from_spec("gzip:error:1"),
                         retries=2, jobs=2, batch=2)
    assert set(dispatch.outputs) == {"art", "gzip", "mcf", "swim"}
    assert dispatch.failures == {}
    # An in-batch exception is contained per member: the pool survives
    # and only the failing member is charged — its batch-mate's single
    # attempt succeeded.
    assert counter_value("faults.pool_rebuild") == rebuilds
    assert counter_value("retry.error") == errors + 1
    per_bench = {}
    for record in dispatch.records:
        per_bench.setdefault(record.bench, []).append(record.outcome)
    assert per_bench["gzip"] == ["error", "ok"]
    assert per_bench["art"] == ["ok"]


# -- warm worker reuse --------------------------------------------------------


def test_warm_pool_reused_across_dispatches():
    misses = counter_value("pool.warm_miss")
    hits = counter_value("pool.warm_hit")
    first = _dispatch(["art", "gzip"], jobs=2)
    second = _dispatch(["art", "gzip"], jobs=2)
    assert counter_value("pool.warm_miss") == misses + 1
    assert counter_value("pool.warm_hit") == hits + 1
    first_pids = {o.pid for o in first.outputs.values()}
    second_pids = {o.pid for o in second.outputs.values()}
    # The second dispatch adopted the parked pool: same worker processes.
    assert first_pids & second_pids


# -- pickling failures (satellite: swallowed into an empty payload) -----------


def test_unpicklable_job_fails_fast_with_original_error():
    class LocalConfig(DBTConfig):
        """Local classes cannot pickle by reference."""

    rebuilds = counter_value("faults.pool_rebuild")
    errors = counter_value("retry.error")
    fallback = counter_value("faults.fallback.success")
    # Two names, so the two workers engage the process pool.
    dispatch = _dispatch(["gzip", "art"], retries=0, jobs=2,
                         config=LocalConfig())
    # The pickling failure is charged to each job immediately — no opaque
    # pool break — and the inline fallback (which never pickles) saves it.
    assert set(dispatch.outputs) == {"gzip", "art"}
    assert dispatch.failures == {}
    assert counter_value("faults.pool_rebuild") == rebuilds
    assert counter_value("retry.error") == errors + 2
    assert counter_value("faults.fallback.success") == fallback + 2
    failed = [r for r in dispatch.records if r.outcome == "error"]
    assert len(failed) == 2
    # never serialised, never shipped
    assert [r.payload_bytes for r in failed] == [0, 0]


def test_unpicklable_job_quarantine_names_pickling(monkeypatch):
    class LocalConfig(DBTConfig):
        pass

    # Break the fallback too (profiling reset runs before the study), so
    # the quarantine surfaces and its error names the real culprit.
    def _boom():
        raise RuntimeError("sampler exploded")

    monkeypatch.setattr("repro.obs.profile.reset_sampling", _boom)
    dispatch = _dispatch(["gzip", "art"], retries=0, jobs=2,
                         config=LocalConfig())
    assert dispatch.outputs == {}
    assert set(dispatch.failures) == {"gzip", "art"}
    for failure in dispatch.failures.values():
        assert "failed to pickle" in failure.error
        assert "inline fallback also failed" in failure.error


# -- fault-token refunds (satellite: tokens lost to unrelated deaths) ---------


def test_unfired_token_refunded_when_attempt_dies_early(monkeypatch):
    # The attempt dies in job setup, *before* the drawn fault fires: the
    # token must go back to the plan, or the injection schedule would
    # silently lose a scheduled fault to an unrelated failure.
    def _boom():
        raise RuntimeError("sampler exploded")

    monkeypatch.setattr("repro.obs.profile.reset_sampling", _boom)
    plan = FaultPlan.from_spec("gzip:error:1")
    refunded = counter_value("faults.refunded")
    dispatch = _dispatch(["gzip"], plan=plan, retries=0, jobs=1)
    assert dispatch.failures["gzip"].reason == "error"
    assert "sampler exploded" in dispatch.failures["gzip"].error
    assert counter_value("faults.refunded") == refunded + 1
    # The schedule survives: the token is drawable again.
    assert plan.draw("gzip") == "error"


def test_fired_token_consumed_on_failure():
    # The injected fault itself caused the death: consumed, not refunded.
    plan = FaultPlan.from_spec("gzip:error:1")
    refunded = counter_value("faults.refunded")
    dispatch = _dispatch(["gzip"], plan=plan, retries=1, jobs=1)
    assert set(dispatch.outputs) == {"gzip"}  # retry succeeded
    assert counter_value("faults.refunded") == refunded
    assert plan.draw("gzip") is None  # budget spent
