"""Runner tests: per-benchmark study at reduced scale, plus caching.

These are the heaviest tests in the suite; scale is kept small via
``steps_scale``.
"""

import pytest

from repro.dbt import DBTConfig
from repro.harness import run_full_study, study_benchmark
from repro.workloads import get_benchmark

THRESHOLDS = [5, 50, 500]


@pytest.fixture(scope="module")
def swim_result():
    return study_benchmark(get_benchmark("swim"), THRESHOLDS,
                           config=DBTConfig(pool_trigger_size=4),
                           steps_scale=0.02)


def test_result_structure(swim_result):
    assert swim_result.name == "swim"
    assert swim_result.suite == "fp"
    assert swim_result.thresholds == THRESHOLDS
    for t in THRESHOLDS:
        assert t in swim_result.sd_bp
        assert t in swim_result.profiling_ops
        assert t in swim_result.num_regions
    assert swim_result.train_ops > 0
    assert swim_result.avep_ops > 0


def test_perf_points_include_base(swim_result):
    assert 1 in swim_result.perf
    for t in THRESHOLDS:
        assert t in swim_result.perf
    rel = swim_result.perf_relative()
    assert rel[1] == 1.0
    assert all(v > 0 for v in rel.values())


def test_ops_increase_with_threshold(swim_result):
    ops = [swim_result.profiling_ops[t] for t in THRESHOLDS]
    assert ops == sorted(ops)
    assert all(o <= swim_result.avep_ops for o in ops)


def test_perf_can_be_skipped():
    result = study_benchmark(get_benchmark("art"), [50],
                             steps_scale=0.02, include_perf=False)
    assert result.perf == {}
    assert result.sd_bp[50] is not None


def test_full_study_without_cache():
    results = run_full_study(names=["swim", "gzip"], thresholds=[50],
                             steps_scale=0.02, include_perf=False,
                             cache_dir=None)
    assert set(results.benchmarks) == {"swim", "gzip"}
    assert results.benchmarks["gzip"].suite == "int"


def test_full_study_uses_cache(tmp_path):
    cache_dir = str(tmp_path / "cache")
    kwargs = dict(names=["art"], thresholds=[50], steps_scale=0.02,
                  include_perf=False, cache_dir=cache_dir)
    first = run_full_study(**kwargs)
    second = run_full_study(**kwargs)  # served from disk
    assert first.benchmarks["art"].sd_bp == \
        second.benchmarks["art"].sd_bp
    import os
    assert any(name.startswith("study-")
               for name in os.listdir(cache_dir))


def test_cache_key_distinguishes_configs(tmp_path):
    cache_dir = str(tmp_path / "cache")
    run_full_study(names=["art"], thresholds=[50], steps_scale=0.02,
                   include_perf=False, cache_dir=cache_dir)
    run_full_study(names=["art"], thresholds=[500], steps_scale=0.02,
                   include_perf=False, cache_dir=cache_dir)
    import os
    files = os.listdir(cache_dir)
    # Each config gets its own aggregate and its own per-benchmark shard.
    assert len([f for f in files if f.startswith("study-")]) == 2
    assert len([f for f in files if f.startswith("shard-art-")]) == 2


def test_steps_scale_does_not_mutate_benchmark():
    benchmark = get_benchmark("art")
    run_steps, train_steps = benchmark.run_steps, benchmark.train_steps
    study_benchmark(benchmark, [50], steps_scale=0.02, include_perf=False)
    assert benchmark.run_steps == run_steps
    assert benchmark.train_steps == train_steps
    # Repeating with another scale must not compound either.
    study_benchmark(benchmark, [50], steps_scale=0.5, include_perf=False)
    assert benchmark.run_steps == run_steps


def test_scaled_copy_floors_and_identity():
    benchmark = get_benchmark("art")
    assert benchmark.scaled(1.0) is benchmark
    tiny = benchmark.scaled(1e-9)
    assert tiny.run_steps == 20_000
    assert tiny.train_steps == 10_000
    assert tiny.name == benchmark.name


def test_stale_cache_is_warned_and_counted(tmp_path):
    import io
    import os

    from repro.harness.studyspec import StudySpec
    from repro.obs import configure, counter_value
    from repro.obs import log as obslog

    cache_dir = str(tmp_path / "cache")
    os.makedirs(cache_dir)
    key = StudySpec(thresholds=[50], steps_scale=0.02,
                    include_perf=False).run_key(["art"])
    cache_path = os.path.join(cache_dir, f"study-{key}.json")
    with open(cache_path, "w") as f:
        f.write("{ not json")

    saved = (obslog._CONFIG.level, obslog._CONFIG.json_mode,
             obslog._CONFIG.stream, obslog._CONFIG.configured)
    stream = io.StringIO()
    configure(level="warning", stream=stream)
    stale_before = counter_value("cache.stale")
    miss_before = counter_value("cache.miss")
    try:
        results = run_full_study(names=["art"], thresholds=[50],
                                 steps_scale=0.02, include_perf=False,
                                 cache_dir=cache_dir)
    finally:
        (obslog._CONFIG.level, obslog._CONFIG.json_mode,
         obslog._CONFIG.stream, obslog._CONFIG.configured) = saved
    assert "art" in results.benchmarks  # recomputed despite bad cache
    assert counter_value("cache.stale") == stale_before + 1
    assert counter_value("cache.miss") == miss_before + 1
    logged = stream.getvalue()
    assert "stale results cache" in logged
    assert cache_path in logged


def test_manifest_attached_and_cached(tmp_path):
    cache_dir = str(tmp_path / "cache")
    kwargs = dict(names=["art"], thresholds=[50], steps_scale=0.02,
                  include_perf=False, cache_dir=cache_dir)
    first = run_full_study(**kwargs)
    assert first.manifest is not None
    assert first.manifest["benchmarks"] == ["art"]
    assert "art" in first.manifest["timings"]
    assert first.manifest["metrics"]["counters"]
    second = run_full_study(**kwargs)  # from disk, manifest included
    assert second.manifest["fingerprint"] == first.manifest["fingerprint"]


def test_replay_metrics_counted():
    from repro.obs import counter_value
    translated = counter_value("replay.blocks_translated")
    misses = counter_value("cache.miss")
    run_full_study(names=["art"], thresholds=[50], steps_scale=0.02,
                   include_perf=False, cache_dir=None)
    assert counter_value("replay.blocks_translated") > translated
    # cache_dir=None must not touch the cache counters.
    assert counter_value("cache.miss") == misses
