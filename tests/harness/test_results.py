"""Result persistence (cache shards and the run aggregate) and
aggregation tests."""

import json

import pytest

from repro.harness import (BenchmarkResult, PerfPoint, StudyResults,
                           average_scalar, average_series)
from repro.harness.results import (load_aggregate, load_shard,
                                   save_aggregate, save_shard)


def _result(name="demo", suite="int"):
    return BenchmarkResult(
        name=name, suite=suite, thresholds=[10, 100],
        sd_bp={10: 0.2, 100: 0.1},
        bp_mismatch={10: 0.3, 100: None},
        sd_cp={10: None, 100: 0.05},
        sd_lp={10: 0.15, 100: 0.08},
        lp_mismatch={10: 0.5, 100: 0.0},
        train_sd_bp=0.12, train_bp_mismatch=0.09,
        train_sd_cp=0.07, train_sd_lp=0.11,
        profiling_ops={10: 100, 100: 900},
        train_ops=10_000, avep_ops=50_000,
        num_regions={10: 4, 100: 2},
        perf={1: PerfPoint(total=100.0, unoptimized=50, optimized=30,
                           side_exits=15, translation=5, num_side_exits=3,
                           optimized_fraction=0.9),
              10: PerfPoint(total=80.0, unoptimized=40, optimized=30,
                            side_exits=5, translation=5, num_side_exits=1,
                            optimized_fraction=0.8)})


def test_perf_relative():
    result = _result()
    rel = result.perf_relative()
    assert rel[1] == 1.0
    assert rel[10] == pytest.approx(1.25)
    with pytest.raises(KeyError):
        result.perf_relative(base_threshold=999)


def test_save_load_roundtrip(tmp_path):
    path = str(tmp_path / "shard.json")
    save_shard(path, _result(), "fp123", seconds=1.5)
    restored, seconds = load_shard(path, expect_name="demo",
                                   expect_fingerprint="fp123")
    assert seconds == 1.5
    assert restored == _result()
    assert restored.sd_bp == {10: 0.2, 100: 0.1}
    assert restored.bp_mismatch[100] is None
    assert restored.perf[1].total == 100.0
    assert restored.perf_relative()[10] == pytest.approx(1.25)


def test_manifest_roundtrip(tmp_path):
    from repro.obs import build_manifest
    results = StudyResults()
    results.benchmarks["demo"] = _result()
    results.manifest = build_manifest(
        fingerprint="abc123", names=["demo"], thresholds=[10, 100],
        steps_scale=0.5, include_perf=True,
        timings={"demo": 1.25}, total_seconds=1.3)
    path = str(tmp_path / "study.json")
    save_aggregate(path, results.manifest, {"demo": "shard-demo.json"})
    manifest, shards = load_aggregate(path)
    assert shards == {"demo": "shard-demo.json"}
    assert manifest["fingerprint"] == "abc123"
    assert manifest["timings"] == {"demo": 1.25}
    assert manifest["steps_scale"] == 0.5
    assert "counters" in manifest["metrics"]


def test_missing_manifest_tolerated(tmp_path):
    path = str(tmp_path / "study.json")
    save_aggregate(path, None, {"demo": "shard-demo.json"})
    # Simulate a file written without a manifest key.
    with open(path) as f:
        payload = json.load(f)
    del payload["manifest"]
    with open(path, "w") as f:
        json.dump(payload, f)
    assert load_aggregate(path) == (None, {"demo": "shard-demo.json"})


def test_render_manifest_smoke():
    from repro.obs import build_manifest, render_manifest
    text = render_manifest(build_manifest(
        fingerprint="abc123", names=["gzip"], thresholds=[10],
        timings={"gzip": 2.0}, total_seconds=2.0))
    assert "abc123" in text
    assert "gzip" in text
    assert "none recorded" in render_manifest(None)


def test_stale_format_rejected(tmp_path):
    path = str(tmp_path / "stale.json")
    with open(path, "w") as f:
        json.dump({"version": -1, "benchmarks": {}}, f)
    with pytest.raises(ValueError, match="stale"):
        load_aggregate(path)
    with pytest.raises(ValueError, match="stale"):
        load_shard(path)


def test_suite_filters():
    results = StudyResults()
    results.benchmarks["a"] = _result("a", "int")
    results.benchmarks["b"] = _result("b", "fp")
    assert results.names() == ["a", "b"]
    assert results.names("fp") == ["b"]
    assert [r.name for r in results.of_suite("int")] == ["a"]


def test_average_series_skips_none():
    a = _result("a")
    b = _result("b")
    b.bp_mismatch = {10: 0.1, 100: 0.2}
    avg = average_series([a, b], "bp_mismatch", [10, 100])
    assert avg[10] == pytest.approx(0.2)
    assert avg[100] == pytest.approx(0.2)  # only b has a value


def test_average_scalar():
    a = _result("a")
    b = _result("b")
    b.train_sd_bp = None
    assert average_scalar([a, b], "train_sd_bp") == pytest.approx(0.12)
    a.train_sd_bp = None
    assert average_scalar([a, b], "train_sd_bp") is None
