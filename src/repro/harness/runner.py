"""Full-suite study runner with parallel fan-out and sharded caching.

``run_full_study`` walks every benchmark once per input, sweeps all the
thresholds in a single replay pass, runs the §2 comparisons and the
§4.4/§4.5 models, and returns a
:class:`~repro.harness.results.StudyResults`.  Benchmarks are independent
jobs, so with ``jobs > 1`` they fan out across a process pool (see
:mod:`repro.harness.pool`); workers ship their metrics and spans back
to the parent, so observability output matches a serial run.

Results are cached per benchmark: each ``(benchmark, configuration)``
pair gets its own shard file keyed by a config fingerprint, plus a thin
run-level aggregate holding the manifest and the shard index.  Adding a
benchmark, changing the name subset, or resuming an interrupted run only
recomputes the missing shards.

Every run is instrumented through :mod:`repro.obs`: per-benchmark and
per-stage spans, cache hit/miss/stale counters (aggregate- and
shard-level), and a run manifest (fingerprint, timings, metric snapshot)
attached to the results and persisted with the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.study import run_threshold_sweep
from ..dbt.config import DBTConfig
from ..dbt.replay import ReplayDBT
from ..obs import dispatch as obsdispatch
from ..obs import flightrec
from ..obs import log as obslog
from ..obs.manifest import build_manifest
from ..obs.profile import PhaseProfile, resolve_profile, set_profiling
from ..obs.registry import inc, merge_state, observe, set_gauge
from ..obs.spans import extend_trace, now_ts, span, trace_events
from ..perfmodel.costs import DEFAULT_COSTS, CostModel
from ..perfmodel.execution import estimate_cost
from ..perfmodel.tables import CostTables
from ..workloads.spec import (BASE_THRESHOLD, SIM_THRESHOLDS,
                              SyntheticBenchmark, all_benchmarks)
from .faults import (FaultPlan, resolve_job_timeout, resolve_retries,
                     set_active_plan)
from .pool import (RetryPolicy, WorkerOutput, dedupe_names,
                   dispatch_study_jobs, resolve_batch, resolve_jobs,
                   resolve_pool)
from .results import (BenchmarkResult, PerfPoint, StudyResults,
                      load_aggregate, load_shard, save_aggregate,
                      save_shard, shard_filename)

#: Default on-disk cache location (project-relative).
DEFAULT_CACHE_DIR = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "..", "..", "..", ".cache"))

#: Environment variable turning the semantic verifier on by default.
VERIFY_ENV = "REPRO_VERIFY"

_log = obslog.get_logger("repro.harness.runner")


def resolve_verify(verify: Optional[bool] = None) -> bool:
    """Whether studies should run under the semantic verifier.

    Explicit ``verify`` wins; otherwise :data:`VERIFY_ENV` (``1``,
    ``true``, ``yes``, ``on`` enable, ``0``/``false``/``no``/``off``/
    empty disable); otherwise off.
    """
    if verify is not None:
        return verify
    env = os.environ.get(VERIFY_ENV, "").strip().lower()
    if env in ("", "0", "false", "no", "off"):
        return False
    if env in ("1", "true", "yes", "on"):
        return True
    raise ValueError(f"{VERIFY_ENV} must be a boolean flag, "
                     f"got {os.environ.get(VERIFY_ENV)!r}")


def _key_payload(thresholds: Sequence[int], config: DBTConfig,
                 costs: CostModel, steps_scale: float,
                 include_perf: bool, verify: bool = False) -> Dict:
    """The normalised configuration dict behind every cache key.

    Thresholds are sorted and config/cost dataclasses expanded into
    explicit field dicts, so equivalent configurations always share a
    fingerprint regardless of argument order or object identity.  The
    ``verify`` key only appears when verification is on: verified
    results carry extra payload (the findings), while unverified runs
    keep their pre-verifier fingerprints — and their caches — intact.
    """
    payload = {
        "thresholds": sorted(int(t) for t in thresholds),
        "config": asdict(config),
        "costs": asdict(costs),
        "steps_scale": steps_scale,
        "include_perf": include_perf,
    }
    if verify:
        payload["verify"] = True
    return payload


def _hash_payload(payload: Dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _fingerprint(names: Sequence[str], thresholds: Sequence[int],
                 config: DBTConfig, costs: CostModel,
                 steps_scale: float, include_perf: bool,
                 verify: bool = False) -> str:
    """Run-level cache key: the config payload plus the sorted name set."""
    payload = _key_payload(thresholds, config, costs, steps_scale,
                           include_perf, verify)
    payload["names"] = sorted(names)
    return _hash_payload(payload)


def _config_fingerprint(thresholds: Sequence[int], config: DBTConfig,
                        costs: CostModel, steps_scale: float,
                        include_perf: bool, verify: bool = False) -> str:
    """Shard-level cache key: configuration only, shared by all names."""
    return _hash_payload(_key_payload(thresholds, config, costs,
                                      steps_scale, include_perf, verify))


def study_benchmark(benchmark: SyntheticBenchmark,
                    thresholds: Sequence[int],
                    config: Optional[DBTConfig] = None,
                    costs: CostModel = DEFAULT_COSTS,
                    steps_scale: float = 1.0,
                    include_perf: bool = True,
                    verify: Optional[bool] = None) -> BenchmarkResult:
    """Run the complete study for one benchmark and distil the numbers.

    Args:
        benchmark: the workload (never mutated; scaling works on a copy).
        thresholds: simulator thresholds to sweep.
        config: DBT knobs (threshold overridden per sweep point).
        costs: the Figure 17 cost calibration.
        steps_scale: scales run lengths (sub-1.0 for quick smoke runs;
            phase boundaries are fractional so they scale along).
        include_perf: also run the cost model (the most expensive stage).
        verify: run the semantic verifier over the finished study
            (default: ``$REPRO_VERIFY``, else off).  Findings at
            warning+ severity land in the result's ``verify_findings``.
    """
    config = config or DBTConfig()
    verify = resolve_verify(verify)
    if steps_scale != 1.0:
        benchmark = benchmark.scaled(steps_scale)

    with span("study_benchmark", bench=benchmark.name):
        with span("record_traces", bench=benchmark.name):
            ref_trace = benchmark.trace("ref")
            # INIP(train) is a whole-run profile: counts, no steps.
            train_counts = benchmark.counts("train")
        loops = benchmark.loop_forest()
        with span("threshold_sweep", bench=benchmark.name,
                  thresholds=len(thresholds)):
            study = run_threshold_sweep(
                benchmark.name, benchmark.cfg, ref_trace, train_counts,
                thresholds, base_config=config, loops=loops)

        result = BenchmarkResult(
            name=benchmark.name, suite=benchmark.suite,
            thresholds=sorted(thresholds),
            sd_bp={}, bp_mismatch={}, sd_cp={}, sd_lp={}, lp_mismatch={},
            train_sd_bp=study.train_comparison.sd_bp,
            train_bp_mismatch=study.train_comparison.bp_mismatch,
            train_sd_cp=study.train_region_comparison.sd_cp,
            train_sd_lp=study.train_region_comparison.sd_lp,
            profiling_ops={}, train_ops=study.train_ops,
            avep_ops=study.avep.profiling_ops)

        for t in study.thresholds:
            outcome = study.outcomes[t]
            comparison = outcome.comparison
            result.sd_bp[t] = comparison.sd_bp
            result.bp_mismatch[t] = comparison.bp_mismatch
            result.sd_cp[t] = comparison.sd_cp
            result.sd_lp[t] = comparison.sd_lp
            result.lp_mismatch[t] = comparison.lp_mismatch
            result.profiling_ops[t] = outcome.profiling_ops
            result.num_regions[t] = outcome.num_regions

        if include_perf:
            with span("perf_model", bench=benchmark.name):
                sizes = benchmark.workload.sizes
                perf_thresholds = sorted(set(thresholds) | {BASE_THRESHOLD})
                # The trace-invariant half of the estimator is shared
                # across the whole sweep (bit-identical results).
                tables = CostTables(ref_trace, sizes, costs)
                for t in perf_thresholds:
                    if t in study.outcomes:
                        # The sweep already replayed this threshold; its
                        # cached translation map is reused as-is.
                        replay = study.outcomes[t].replay
                    else:
                        replay = ReplayDBT(ref_trace, benchmark.cfg,
                                           config.with_threshold(t),
                                           loops=loops)
                    breakdown = estimate_cost(ref_trace,
                                              replay.translation_map(),
                                              sizes, costs, tables=tables)
                    result.perf[t] = PerfPoint(
                        total=breakdown.total,
                        unoptimized=breakdown.unoptimized,
                        optimized=breakdown.optimized,
                        side_exits=breakdown.side_exits,
                        translation=breakdown.translation,
                        num_side_exits=breakdown.num_side_exits,
                        optimized_fraction=breakdown.optimized_fraction)

        if verify:
            # Imported lazily: the analysis layer depends on the core
            # study machinery, and unverified runs must not pay for it.
            from ..analysis.verify import Severity, verify_study
            with span("verify_study", bench=benchmark.name):
                report = verify_study(study, config=config)
            result.verify_findings = [
                d.render() for d in report.diagnostics
                if d.severity is not Severity.INFO]
            if not report.ok:
                _log.error("semantic verification failed",
                           bench=benchmark.name,
                           findings=len(report.errors))
            elif result.verify_findings:
                _log.warning("semantic verification produced warnings",
                             bench=benchmark.name,
                             findings=len(result.verify_findings))
    return result


def _load_cached(cache_dir: str, cache_path: str, key: str,
                 confkey: str) -> Optional[StudyResults]:
    """Try the aggregate + its shards; count hits, misses and stale files.

    Every shard is validated against the benchmark name and config
    fingerprint it is expected to hold — the aggregate's index (like the
    filename) is never trusted on its own.
    """
    if not os.path.exists(cache_path):
        inc("cache.miss")
        _log.info("results cache miss", path=cache_path, fingerprint=key)
        return None
    try:
        manifest, shard_files = load_aggregate(cache_path)
        results = StudyResults(manifest=manifest)
        for name, fname in shard_files.items():
            result, _ = load_shard(os.path.join(cache_dir, fname),
                                   expect_name=name,
                                   expect_fingerprint=confkey)
            results.benchmarks[name] = result
    except FileNotFoundError as exc:
        # The aggregate points at shards that are gone — not corruption;
        # the per-shard path below reuses whatever still exists.
        inc("cache.miss")
        _log.info("aggregate incomplete, reusing remaining shards",
                  path=cache_path, fingerprint=key, missing=str(exc))
        return None
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        # A stale or corrupt cache file is recomputed, but never silently:
        # it usually means the results format moved under an old cache
        # (v5 monolithic files land here too).
        inc("cache.stale")
        inc("cache.miss")
        _log.warning("stale results cache, recomputing", path=cache_path,
                     fingerprint=key,
                     error=f"{exc.__class__.__name__}: {exc}")
        return None
    inc("cache.hit")
    _log.info("results cache hit", path=cache_path, fingerprint=key)
    return results


def _load_shard_cached(cache_dir: str, name: str, confkey: str
                       ) -> Optional[Tuple[BenchmarkResult, float]]:
    """Try one benchmark's shard; count shard-level hits/misses/stales."""
    path = os.path.join(cache_dir, shard_filename(name, confkey))
    if not os.path.exists(path):
        inc("cache.shard.miss")
        return None
    try:
        result, seconds = load_shard(path, expect_name=name,
                                     expect_fingerprint=confkey)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        inc("cache.shard.stale")
        inc("cache.shard.miss")
        _log.warning("stale shard cache, recomputing", path=path,
                     bench=name, error=f"{exc.__class__.__name__}: {exc}")
        return None
    inc("cache.shard.hit")
    _log.info("shard cache hit", path=path, bench=name)
    return result, seconds


def run_full_study(names: Optional[Iterable[str]] = None,
                   thresholds: Sequence[int] = SIM_THRESHOLDS,
                   config: Optional[DBTConfig] = None,
                   costs: CostModel = DEFAULT_COSTS,
                   steps_scale: float = 1.0,
                   include_perf: bool = True,
                   cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
                   verbose: bool = False,
                   jobs: Optional[int] = None,
                   retries: Optional[int] = None,
                   job_timeout: Optional[float] = None,
                   verify: Optional[bool] = None,
                   profile: Optional[bool] = None,
                   flight_dir: Optional[str] = None,
                   pool: Optional[str] = None,
                   batch: Optional[int] = None) -> StudyResults:
    """Run (or load from cache) the full evaluation study.

    With the default arguments this reproduces every figure's raw data
    for the whole 26-benchmark suite, fanned out across all CPUs and
    served shard-by-shard from the JSON cache on repeat runs.

    The run survives worker failure: crashed jobs are retried with
    exponential backoff (the pool is rebuilt and only lost jobs are
    resubmitted), hung jobs are killed after ``job_timeout`` seconds,
    and benchmarks that exhaust their budget are *quarantined* — the
    study completes without them and lists them under
    ``manifest["failed_benchmarks"]`` instead of aborting.

    Args:
        jobs: worker processes for the per-benchmark fan-out (default:
            the ``REPRO_JOBS`` environment variable, else every CPU).
            ``jobs=1`` keeps everything in-process; any value produces
            bit-identical results.
        retries: per-benchmark retry budget for crashed or failing jobs
            (default: ``$REPRO_RETRIES``, else 2).
        job_timeout: seconds before an in-flight job is declared hung
            and quarantined (default: ``$REPRO_JOB_TIMEOUT``, else
            unlimited; enforced only with ``jobs > 1``).
        verify: run the semantic verifier inside every study (default:
            ``$REPRO_VERIFY``, else off); findings are attached to each
            benchmark's result and summarised in the manifest.  Verified
            runs use their own cache fingerprints.
        verbose: emit per-benchmark progress through the structured
            logger (auto-configured at info level if
            :func:`repro.obs.configure` has not been called yet).
        profile: arm the fine-grained profiling span sites in the
            parent and every worker (default: ``$REPRO_PROFILE``, else
            off).  Profiling only adds timing spans — study figures are
            byte-identical either way — and the run manifest gains a
            phase-attribution section regardless of this flag.
        flight_dir: where to write flight-recorder dumps for failed
            benchmarks (default: ``$REPRO_FLIGHT_DIR``, else
            ``<cache_dir>/flight``, else nowhere).
        pool: pool backend for the fan-out — ``"inprocess"``,
            ``"process"`` or ``"batched"`` (default: ``$REPRO_POOL``,
            else chosen from ``jobs``/``batch``).  Every backend
            produces bit-identical results.
        batch: benchmarks per dispatch unit on the batched backend
            (default: ``$REPRO_BATCH``, else sized automatically).
    """
    config = config or DBTConfig()
    if names is None:
        names = [b.name for b in all_benchmarks()]
    names = dedupe_names(list(names))
    jobs = resolve_jobs(jobs)
    pool = resolve_pool(pool)
    batch = resolve_batch(batch)
    verify = resolve_verify(verify)
    profile = resolve_profile(profile)
    set_profiling(profile)
    policy = RetryPolicy(retries=resolve_retries(retries),
                         job_timeout=resolve_job_timeout(job_timeout))

    if verbose and not obslog.is_configured():
        obslog.configure(level="info")

    key = _fingerprint(names, thresholds, config, costs, steps_scale,
                       include_perf, verify)
    confkey = _config_fingerprint(thresholds, config, costs, steps_scale,
                                  include_perf, verify)
    cache_path = None
    if cache_dir is not None:
        cache_dir = os.path.normpath(cache_dir)
        cache_path = os.path.join(cache_dir, f"study-{key}.json")
        cached = _load_cached(cache_dir, cache_path, key, confkey)
        if cached is not None:
            return cached

    plan = FaultPlan.from_env()
    set_active_plan(plan)
    try:
        return _compute_study(
            names, thresholds, config, costs, steps_scale, include_perf,
            verify, cache_dir, cache_path, key, confkey, jobs, policy, plan,
            profile, flight_dir, pool, batch)
    finally:
        set_active_plan(None)


def _attach_merge_seconds(records, name: str, seconds: float) -> None:
    """Credit a merge's cost to the benchmark's successful attempt."""
    for record in records:
        if record.bench == name and record.outcome == "ok":
            record.merge_seconds += seconds
            return


def _observe_dispatch(records) -> None:
    """Feed the per-attempt dispatch segments into the histograms."""
    for record in records:
        observe("dispatch.payload_bytes", record.payload_bytes)
        for segment in obsdispatch.SEGMENTS:
            observe(f"dispatch.{segment}_seconds", record.segment(segment))


def _navep_health(outputs) -> Optional[Dict]:
    """The worst NAVEP solve of this run's computed benchmarks.

    Read from each job's own metric state, so earlier studies in the
    same process do not leak in; ``None`` when nothing was solved.
    """
    solves = deficient = deficit = 0
    worst: Optional[Tuple[float, str]] = None
    drift: Tuple[float, Optional[str]] = (0.0, None)
    for name, output in sorted(outputs.items()):
        histograms = output.metrics.get("histograms", {})
        residuals = histograms.get("navep.residual_norm", [])
        solves += len(residuals)
        if residuals and (worst is None or max(residuals) > worst[0]):
            worst = (max(residuals), name)
        drifts = histograms.get("navep.conservation_drift", [])
        if drifts and max(drifts) > drift[0]:
            drift = (max(drifts), name)
        deficit = max([deficit] + histograms.get("navep.rank_deficit", []))
        deficient += output.metrics.get("counters", {}).get(
            "navep.rank_deficient", 0)
    if worst is None:
        return None
    return {"solves": solves, "max_residual_norm": worst[0],
            "max_residual_bench": worst[1], "rank_deficient": deficient,
            "max_rank_deficit": int(deficit),
            "max_conservation_drift": drift[0],
            "max_drift_bench": drift[1]}


def _write_flight_dumps(failures, flights, flight_dir, cache_dir) -> None:
    """One diagnosis artifact per quarantined benchmark, if anywhere."""
    resolved = flightrec.resolve_flight_dir(flight_dir, cache_dir)
    if resolved is None:
        return
    for name, failure in sorted(failures.items()):
        try:
            path = flightrec.write_dump(
                resolved, name, failure.reason,
                context={"reason": failure.reason,
                         "attempts": failure.attempts,
                         "error": failure.error},
                worker_events=flights.get(name))
        except OSError as exc:
            _log.warning("flight dump not written", bench=name,
                         error=f"{exc.__class__.__name__}: {exc}")
        else:
            failure.flight_record = path
            _log.info("flight dump written", bench=name, path=path)


def _compute_study(names, thresholds, config, costs, steps_scale,
                   include_perf, verify, cache_dir, cache_path, key,
                   confkey, jobs, policy, plan, profile=False,
                   flight_dir=None, pool=None, batch=None) -> StudyResults:
    """The cache-miss path of :func:`run_full_study`."""
    collected: Dict[str, BenchmarkResult] = {}
    timings: Dict[str, float] = {}
    cached_names: List[str] = []
    failures: Dict = {}
    dispatch = None
    study_started = time.perf_counter()
    trace_mark = now_ts()
    with span("full_study", benchmarks=len(names), fingerprint=key,
              jobs=jobs):
        pending: List[str] = []
        for name in names:
            loaded = None
            if cache_dir is not None:
                loaded = _load_shard_cached(cache_dir, name, confkey)
            if loaded is not None:
                collected[name], seconds = loaded
                timings[name] = round(seconds, 3)
                cached_names.append(name)
            else:
                pending.append(name)

        def _absorb(output: WorkerOutput) -> None:
            # Runs in the parent in completion order: shards hit disk as
            # soon as a benchmark finishes, so an interrupted (or
            # quarantine-ridden) run resumes from every completed shard.
            collected[output.name] = output.result
            timings[output.name] = round(output.seconds, 3)
            observe("study.benchmark_seconds", output.seconds)
            _log.info("benchmark done", bench=output.name,
                      seconds=round(output.seconds, 1))
            if cache_dir is not None:
                shard_path = os.path.join(
                    cache_dir, shard_filename(output.name, confkey))
                save_shard(shard_path, output.result, confkey,
                           round(output.seconds, 3))

        dispatch_wall = 0.0
        if pending:
            dispatch_started = time.perf_counter()
            dispatch = dispatch_study_jobs(
                pending, thresholds, config, costs, steps_scale,
                include_perf, jobs=jobs, policy=policy, plan=plan,
                on_output=_absorb, verify=verify, profile=profile,
                pool=pool, batch=batch)
            dispatch_wall = time.perf_counter() - dispatch_started
            failures = dispatch.failures
            own_pid = os.getpid()
            for name in pending:  # deterministic merge order
                output = dispatch.outputs.get(name)
                if output is None:
                    continue
                merge_started = time.perf_counter()
                with span("dispatch.merge", bench=name):
                    merge_state(output.metrics)
                    if output.pid and output.pid != own_pid:
                        # Pool workers get their own named trace lane.
                        extend_trace(output.spans,
                                     label=f"worker-{output.pid}")
                    else:
                        # Inline outputs re-nest under full_study in the
                        # parent's own lane (same pid/tid, inner window).
                        extend_trace(output.spans)
                _attach_merge_seconds(
                    dispatch.records, name,
                    time.perf_counter() - merge_started)
    total = time.perf_counter() - study_started

    set_gauge("study.jobs", jobs)
    dispatch_summary = None
    if dispatch is not None and dispatch.records:
        _observe_dispatch(dispatch.records)
        dispatch_summary = obsdispatch.summarize(
            dispatch.records, jobs=jobs, wall_seconds=dispatch_wall)
    if dispatch is not None and failures:
        _write_flight_dumps(failures, dispatch.flights, flight_dir,
                            cache_dir)

    # Attribute this run's wall time: only span events recorded since
    # the run started (the same process may have run studies before).
    profile_data = PhaseProfile.from_events(
        [e for e in trace_events() if e.get("ts", 0.0) >= trace_mark]
    ).to_dict()
    set_gauge("profile.coverage", profile_data["coverage"])

    results = StudyResults()
    for name in names:
        if name in collected:
            results.benchmarks[name] = collected[name]
    results.manifest = build_manifest(
        fingerprint=key, names=names, thresholds=thresholds, config=config,
        steps_scale=steps_scale, include_perf=include_perf,
        timings=timings, total_seconds=round(total, 3),
        extra={"jobs": jobs, "cached_benchmarks": cached_names,
               "pool": dispatch.backend if dispatch is not None else None,
               "batch_size":
                   dispatch.batch_size if dispatch is not None else None,
               "config_fingerprint": confkey,
               "retries": policy.retries,
               "job_timeout": policy.job_timeout,
               "verify": verify,
               "profile_enabled": profile,
               "profile": profile_data,
               "dispatch": dispatch_summary,
               "navep": (_navep_health(dispatch.outputs)
                         if dispatch is not None else None),
               "verify_findings": {
                   name: len(result.verify_findings)
                   for name, result in sorted(collected.items())
                   if result.verify_findings},
               "failed_benchmarks": {
                   name: asdict(failure)
                   for name, failure in sorted(failures.items())}})
    if cache_path is not None:
        if failures:
            # An aggregate indexing only the surviving shards would make
            # the next identical run a silent "hit" that never retries
            # the quarantined benchmarks — leave it unwritten; the
            # per-benchmark shards already persist the completed work.
            _log.warning("aggregate not written: run has quarantined "
                         "benchmarks", path=cache_path,
                         failed=sorted(failures))
        else:
            save_aggregate(cache_path, results.manifest,
                           {name: shard_filename(name, confkey)
                            for name in names})
            _log.info("results cached", path=cache_path, fingerprint=key,
                      shards=len(names), reused=len(cached_names))
    return results
