"""Pool backends: selection, equivalence, failure envelope, warm reuse.

The load-bearing guarantee of :mod:`repro.harness.pool`: figure data is
byte-identical for any worker count — the backends differ only in
transport cost.  On top of that, a failing job must charge only itself,
warm pools must actually be reused, an unpicklable job must fail fast
with the original pickling error instead of an opaque pool break, and a
drawn fault token must be refunded when the attempt dies of an
unrelated cause before the fault fires — on either side of the process
boundary.
"""

import os

from repro.dbt import DBTConfig
from repro.harness import run_full_study
from repro.harness.faults import FaultPlan
from repro.harness.pool import RetryPolicy, dispatch_study_jobs
from repro.harness.studyspec import StudySpec
from repro.obs import counter_value

KWARGS = dict(thresholds=[5, 50], steps_scale=0.02, include_perf=False)


def _dispatch(names, plan=None, retries=2, jobs=2, **overrides):
    policy = RetryPolicy(retries=retries, backoff=0.0)
    spec = StudySpec(jobs=jobs, **dict(KWARGS, **overrides))
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


# -- backend choice -----------------------------------------------------------


def test_one_worker_runs_inline():
    # The worker count picks the backend: one worker never starts a pool.
    results = run_full_study(names=["gzip", "art"], cache_dir=None, jobs=1,
                             **KWARGS)
    assert results.manifest["pool"] == "inprocess"
    dispatch = _dispatch(["gzip"], jobs=2)  # one name: one worker
    assert dispatch.backend == "inprocess"
    assert {r.mode for r in dispatch.records} == {"inline"}


# -- backend equivalence (the non-negotiable invariant) -----------------------


def test_every_backend_produces_identical_bytes(tmp_path):
    names = ["gzip", "mcf", "art"]
    cells = [
        dict(jobs=1),                              # inprocess
        dict(jobs=2),                              # process
        dict(jobs=3),
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
        # One timeline per benchmark, each stamped with its backend.
        assert results.manifest["dispatch"]["backends"] == {"process": 3}
    # The observability merge is lossless: every cell lands exactly the
    # same replay counters in the parent registry.
    assert len(set(deltas)) == 1 and deltas[0] > 0


# -- per-job failure semantics -----------------------------------------------


def test_error_charges_only_its_own_job():
    rebuilds = counter_value("faults.pool_rebuild")
    errors = counter_value("retry.error")
    dispatch = _dispatch(["art", "gzip", "mcf", "swim"],
                         plan=FaultPlan.from_spec("gzip:error:1"),
                         retries=2, jobs=2)
    assert set(dispatch.outputs) == {"art", "gzip", "mcf", "swim"}
    assert dispatch.failures == {}
    # A job that raises keeps the pool up and is charged alone: every
    # other benchmark succeeds on its first attempt.
    assert counter_value("faults.pool_rebuild") == rebuilds
    assert counter_value("retry.error") == errors + 1
    per_bench = {}
    for record in dispatch.records:
        per_bench.setdefault(record.bench, []).append(record.outcome)
    assert per_bench == {"gzip": ["error", "ok"], "art": ["ok"],
                         "mcf": ["ok"], "swim": ["ok"]}


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


def test_pool_error_envelope_crosses_the_process_boundary():
    # The worker's envelope carries its pid, its own clock and the fault
    # that fired: the parent books the attempt in the worker's terms and
    # consumes the token rather than refunding it.
    plan = FaultPlan.from_spec("gzip:error:1")
    refunded = counter_value("faults.refunded")
    dispatch = _dispatch(["gzip", "art"], plan=plan, retries=1, jobs=2)
    assert set(dispatch.outputs) == {"gzip", "art"}
    (error,) = [r for r in dispatch.records if r.outcome == "error"]
    assert error.bench == "gzip" and error.mode == "pool"
    assert error.worker_pid not in (None, os.getpid())
    assert error.execute_seconds > 0
    assert counter_value("faults.refunded") == refunded
    assert plan.draw("gzip") is None
