"""Benchmark registry and scaling tests."""

import numpy as np
import pytest

from repro.workloads import (NOMINAL_THRESHOLDS, SIM_THRESHOLDS,
                             THRESHOLD_SCALE, all_benchmarks,
                             benchmark_names, get_benchmark, nominal_label,
                             register, suite_names)
from repro.workloads import spec


def test_registry_has_full_spec2000():
    assert len(benchmark_names("int")) == 12
    assert len(benchmark_names("fp")) == 14
    assert len(benchmark_names()) == 26


def test_expected_names_present():
    names = set(benchmark_names())
    for expected in ("gzip", "vpr", "gcc", "mcf", "crafty", "parser",
                     "eon", "perlbmk", "gap", "vortex", "bzip2", "twolf",
                     "wupwise", "swim", "mgrid", "applu", "mesa", "galgel",
                     "art", "equake", "facerec", "ammp", "lucas", "fma3d",
                     "sixtrack", "apsi"):
        assert expected in names


def test_unknown_benchmark_raises():
    with pytest.raises(KeyError, match="unknown benchmark"):
        get_benchmark("quake3")


def test_suite_helpers():
    for suite in ("int", "fp"):
        assert all(get_benchmark(name).suite == suite
                   for name in benchmark_names(suite))
    assert len(all_benchmarks()) == 26


def count_builds(monkeypatch):
    """Wrap every registered factory; the list collects built names."""
    built = []
    for name, factory in list(spec._REGISTRY.items()):
        def counted(name=name, factory=factory):
            built.append(name)
            return factory()
        monkeypatch.setitem(spec._REGISTRY, name, counted)
    return built


def test_listing_names_builds_no_benchmark(monkeypatch):
    """Names, per suite and in the study's INT-then-FP order, come from
    the registry alone: no factory runs until a benchmark is asked for."""
    built = count_builds(monkeypatch)
    ints, fps = benchmark_names("int"), benchmark_names("fp")
    assert len(ints) == 12 and len(fps) == 14
    assert benchmark_names() == sorted(ints + fps)
    assert suite_names() == ints + fps
    assert ints == sorted(ints) and fps == sorted(fps)
    assert built == []
    assert [b.name for b in all_benchmarks()] == suite_names()
    assert built == suite_names()


def test_registered_suite_must_match_the_built_one(monkeypatch):
    monkeypatch.setitem(spec._REGISTRY, "swim2", spec._REGISTRY["swim"])
    monkeypatch.setitem(spec._SUITE, "swim2", "int")
    assert "swim2" in benchmark_names("int")
    with pytest.raises(ValueError, match="registered in suite 'int'"):
        get_benchmark("swim2")
    with pytest.raises(ValueError, match="suite"):
        register("x", "vector")


def test_threshold_scaling():
    assert THRESHOLD_SCALE == 10
    assert len(SIM_THRESHOLDS) == len(NOMINAL_THRESHOLDS) == 13
    for sim, nominal in zip(SIM_THRESHOLDS, NOMINAL_THRESHOLDS):
        assert sim * THRESHOLD_SCALE == nominal


@pytest.mark.parametrize("sim,label", [
    (10, "100"), (50, "500"), (100, "1k"), (1600, "16k"),
    (100_000, "1M"), (400_000, "4M"),
])
def test_nominal_labels(sim, label):
    assert nominal_label(sim) == label


def test_benchmark_traces_are_deterministic():
    a = get_benchmark("swim")
    b = get_benchmark("swim")
    a.run_steps = b.run_steps = 20_000
    ta = a.trace("ref")
    tb = b.trace("ref")
    assert np.array_equal(ta.blocks, tb.blocks)


def test_ref_and_train_differ():
    bench = get_benchmark("eon")
    bench.run_steps = 20_000
    bench.train_steps = 20_000
    ref = bench.trace("ref")
    train = bench.trace("train")
    assert not np.array_equal(ref.blocks[:1000], train.blocks[:1000]) or \
        not np.array_equal(ref.taken[:1000], train.taken[:1000])


def test_unknown_input_rejected():
    with pytest.raises(ValueError, match="unknown input"):
        get_benchmark("swim").trace("test")


def test_invalid_suite_rejected():
    from repro.workloads import SyntheticBenchmark
    bench = get_benchmark("swim")
    with pytest.raises(ValueError, match="suite"):
        SyntheticBenchmark(name="x", suite="vector",
                           workload=bench.workload,
                           character=bench.character, run_steps=100)


def test_train_steps_default():
    bench = get_benchmark("art")
    assert bench.train_steps == max(bench.run_steps // 3, 10_000)
