"""Parallel fan-out and shard-cache semantics.

The load-bearing guarantees: ``--jobs N`` results are byte-identical to
``--jobs 1`` (after stripping the run manifest, which carries wall
times), and the sharded cache reuses exactly the per-benchmark work that
is still valid — hit, miss, partial reuse, and stale-format handling.
"""

import json
import os

import pytest

from repro.harness import run_full_study
from repro.harness.runner import DEFAULT_CACHE_DIR
from repro.harness.studyspec import StudySpec, resolve_spec
from repro.dbt import DBTConfig
from repro.obs import counter_value

KWARGS = dict(thresholds=[5, 50], steps_scale=0.02, include_perf=False)


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


# -- jobs resolution ----------------------------------------------------------


def test_resolve_jobs_explicit_and_default(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_spec(jobs=3).jobs == 3
    assert resolve_spec().jobs == (os.cpu_count() or 1)


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_spec().jobs == 7
    assert resolve_spec(jobs=2).jobs == 2  # explicit beats the environment
    monkeypatch.setenv("REPRO_JOBS", "nope")
    with pytest.raises(ValueError, match="must be an integer"):
        resolve_spec()


def test_resolve_jobs_rejects_nonpositive():
    with pytest.raises(ValueError, match=">= 1"):
        resolve_spec(jobs=0)


def test_cli_parses_jobs():
    from repro.harness.cli import build_parser
    assert build_parser().parse_args([]).jobs is None
    assert build_parser().parse_args(["--jobs", "4"]).jobs == 4


# -- parallel == serial -------------------------------------------------------


def test_parallel_results_identical_to_serial(tmp_path):
    names = ["art", "gzip", "swim"]
    serial = run_full_study(names=names, cache_dir=None, jobs=1, **KWARGS)
    parallel = run_full_study(names=names, cache_dir=None, jobs=2,
                              **KWARGS)
    assert _identical_bytes(serial, parallel, tmp_path)
    assert parallel.manifest["jobs"] == 2
    assert serial.manifest["jobs"] == 1


def test_parallel_merges_worker_observability():
    from repro.obs import counter_value
    translated = counter_value("replay.blocks_translated")
    seconds = counter_value("study.benchmark_seconds")  # counter: 0
    results = run_full_study(names=["art", "gzip"], cache_dir=None,
                             jobs=2, **KWARGS)
    # Worker-side replay counters must land in the parent registry...
    assert counter_value("replay.blocks_translated") > translated
    # ...and the manifest's metric snapshot must include them.
    counters = results.manifest["metrics"]["counters"]
    assert counters["replay.blocks_translated"] > 0
    hists = results.manifest["metrics"]["histograms"]
    assert hists["study.benchmark_seconds"]["count"] >= 2
    # Worker spans are merged into the parent's trace buffer.
    from repro.obs import trace_events
    names = {e["name"] for e in trace_events()}
    assert "study_benchmark" in names


# -- shard cache --------------------------------------------------------------


def test_shards_reused_across_name_subsets(tmp_path):
    cache_dir = str(tmp_path / "cache")
    run_full_study(names=["art"], cache_dir=cache_dir, jobs=1, **KWARGS)
    hits = counter_value("cache.shard.hit")
    misses = counter_value("cache.shard.miss")
    # Growing the subset only computes the new benchmark: art's shard is
    # a hit, gzip's a miss.
    results = run_full_study(names=["art", "gzip"], cache_dir=cache_dir,
                             jobs=1, **KWARGS)
    assert counter_value("cache.shard.hit") == hits + 1
    assert counter_value("cache.shard.miss") == misses + 1
    assert set(results.benchmarks) == {"art", "gzip"}
    assert results.manifest["cached_benchmarks"] == ["art"]


def test_shard_resume_after_interrupted_run(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = run_full_study(names=["art", "gzip"], cache_dir=cache_dir,
                           jobs=1, **KWARGS)
    # Simulate an interrupted run: the aggregate never got written, but
    # the per-benchmark shards did.
    for fname in os.listdir(cache_dir):
        if fname.startswith("study-"):
            os.remove(os.path.join(cache_dir, fname))
    hits = counter_value("cache.shard.hit")
    second = run_full_study(names=["art", "gzip"], cache_dir=cache_dir,
                            jobs=1, **KWARGS)
    assert counter_value("cache.shard.hit") == hits + 2
    assert second.manifest["cached_benchmarks"] == ["art", "gzip"]
    assert first.benchmarks["art"].sd_bp == second.benchmarks["art"].sd_bp


def test_aggregate_hit_skips_shard_loading_counters(tmp_path):
    cache_dir = str(tmp_path / "cache")
    run_full_study(names=["art"], cache_dir=cache_dir, jobs=1, **KWARGS)
    agg_hits = counter_value("cache.hit")
    results = run_full_study(names=["art"], cache_dir=cache_dir, jobs=1,
                             **KWARGS)
    assert counter_value("cache.hit") == agg_hits + 1
    assert "art" in results.benchmarks


def test_v5_monolithic_cache_is_stale_and_recomputed(tmp_path):
    cache_dir = str(tmp_path / "cache")
    os.makedirs(cache_dir)
    key = StudySpec(**KWARGS).run_key(["art"])
    path = os.path.join(cache_dir, f"study-{key}.json")
    with open(path, "w") as f:
        json.dump({"version": 5, "manifest": None,
                   "benchmarks": {"art": {}}}, f)
    stale = counter_value("cache.stale")
    results = run_full_study(names=["art"], cache_dir=cache_dir, jobs=1,
                             **KWARGS)
    assert counter_value("cache.stale") == stale + 1
    assert "art" in results.benchmarks  # recomputed despite the v5 file
    with open(path) as f:  # and rewritten in the sharded v6 layout
        assert json.load(f)["version"] == 6


def test_corrupt_shard_recomputed(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = run_full_study(names=["art"], cache_dir=cache_dir, jobs=1,
                           **KWARGS)
    for fname in os.listdir(cache_dir):
        path = os.path.join(cache_dir, fname)
        if fname.startswith("shard-"):
            with open(path, "w") as f:
                f.write("{ not json")
        else:
            os.remove(path)  # force the per-shard path
    stale = counter_value("cache.shard.stale")
    second = run_full_study(names=["art"], cache_dir=cache_dir, jobs=1,
                            **KWARGS)
    assert counter_value("cache.shard.stale") == stale + 1
    assert first.benchmarks["art"].sd_bp == second.benchmarks["art"].sd_bp


def test_missing_shard_behind_aggregate_recovers(tmp_path):
    cache_dir = str(tmp_path / "cache")
    run_full_study(names=["art", "gzip"], cache_dir=cache_dir, jobs=1,
                   **KWARGS)
    confkey = StudySpec(**KWARGS).config_key()
    os.remove(os.path.join(cache_dir, f"shard-gzip-{confkey}.json"))
    results = run_full_study(names=["art", "gzip"], cache_dir=cache_dir,
                             jobs=1, **KWARGS)
    assert set(results.benchmarks) == {"art", "gzip"}
    assert results.manifest["cached_benchmarks"] == ["art"]


# -- fingerprint normalisation ------------------------------------------------


def test_fingerprint_normalises_order():
    def spec(thresholds):
        return StudySpec(thresholds=thresholds, steps_scale=0.5)
    assert spec([50, 5]).run_key(["b", "a"]) == \
        spec([5, 50]).run_key(["a", "b"])
    assert spec([500, 5]).config_key() == spec([5, 500]).config_key()


def test_fingerprint_distinguishes_configs():
    base = StudySpec(thresholds=[5]).run_key(["a"])
    assert StudySpec(thresholds=[5], config=DBTConfig(pool_trigger_size=3)
                     ).run_key(["a"]) != base
    assert StudySpec(thresholds=[5]).run_key(["a", "b"]) != base


def test_default_cache_dir_is_normalised():
    assert ".." not in DEFAULT_CACHE_DIR
    assert os.path.isabs(DEFAULT_CACHE_DIR)
