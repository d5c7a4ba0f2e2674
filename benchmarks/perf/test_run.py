"""Tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf`` from the
repository root (tier-1 ``testpaths`` stays ``tests/``).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import child
import run
from repro.harness import run_full_study

TINY = {"thresholds": [5, 50], "steps_scale": 0.05, "include_perf": True}
TINY_NAMES = ["gzip", "swim"]  # one INT, one FP


def fake_rep(offset, **fields):
    rep = {"study_s": 1.0 + offset, "cpu_s": 1.1 + offset,
           "peak_rss_mb": 100.0, "setup_s": 0.2,
           "timings": {f"b{i}": (i + 1) / 10 + offset for i in range(26)}}
    rep.update(fields)
    return rep


@pytest.mark.parametrize("n, expected", [
    (19, []), (20, [50]), (39, [50]), (40, [50, 75]),
    (100, [50, 75, 90]), (199, [50, 75, 90]), (200, [50, 75, 90, 95]),
    (1000, [50, 75, 90, 95, 99])])
def test_percentile_needs_ten_samples_beyond_it(n, expected):
    assert run.reportable_percentiles(n) == expected


def test_bench_percentiles_pool_job_seconds_over_reps():
    reps = [fake_rep(r / 100) for r in range(4)]
    metrics = run.end_to_end(reps, [0.3])
    pooled = [s for rep in reps for s in rep["timings"].values()]
    assert metrics["bench_s.p50"]["n"] == 104
    assert metrics["bench_s.p50"]["value"] == run.percentile(pooled, 50)
    assert "bench_s.p90" in metrics and "bench_s.p95" not in metrics
    assert metrics["study_s"]["value"] == pytest.approx(1.015)
    assert metrics["setup_s"]["n"] == 5


def test_reduced_draw_is_seeded_balanced_and_stratified():
    pool = run.REDUCED_POOL
    target = sum(run.DRAW_PER_SUITE * sum(p.values()) / len(p)
                 for p in pool.values())
    draws = set()
    for seed in range(30):
        names = run.draw(seed)
        assert names == run.draw(seed)
        ints, fps = names[:4], names[4:]
        assert len(set(ints)) == 4 and set(ints) <= set(pool["int"])
        assert len(set(fps)) == 4 and set(fps) <= set(pool["fp"])
        cost = sum(pool["int"][n] for n in ints) + sum(
            pool["fp"][n] for n in fps)
        assert abs(cost / target - 1) <= run.DRAW_TOLERANCE
        draws.add(tuple(names))
    assert len(draws) > 20


def make_set(values):
    """A set file whose every workload reads ``values[metric]`` per rep."""
    metrics = run.declared("end_to_end")
    return {"workloads": {w: {"end_to_end": {
        m: run.summary(values.get(m, [1.0, 1.0, 1.0])) for m in metrics}}
        for w in run.WORKLOADS}}


def statuses(base, head):
    rows = run.compare_sets(base, head, run.declared("end_to_end"))
    return {(w, m): status for w, m, *_, status in rows}


def test_compare_passes_equal_sets():
    steady = make_set({"study_s": [10.0, 10.1, 10.2]})
    assert set(statuses(steady, steady).values()) == {"ok"}


def test_compare_flags_a_regression_beyond_the_bound():
    bound = run.declared("end_to_end")["study_s"]["bound"]
    base = make_set({"study_s": [10.0, 10.1, 10.2]})
    head = make_set({"study_s": [v * (1 + bound + 0.02)
                                 for v in (10.0, 10.1, 10.2)]})
    got = statuses(base, head)
    assert got[("paper-j2", "study_s")] == "REGRESSION"
    assert got[("paper-j2", "cpu_s")] == "ok"


def test_compare_marks_a_wide_spread_unresolved():
    base = make_set({"study_s": [8.0, 10.0, 12.0, 14.0]})
    assert statuses(base, base)[("paper-j2", "study_s")] == "unresolved"
    # ... unless every head rep reads better than every base rep.
    faster = make_set({"study_s": [4.0, 5.0, 6.0, 7.0]})
    assert statuses(base, faster)[("paper-j2", "study_s")] == "ok"


def test_compare_exit_code(tmp_path, capsys):
    paths = {}
    for label, study in (("a", [10.0, 10.1]), ("b", [10.05, 10.1]),
                         ("c", [13.0, 13.1])):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(make_set({"study_s": study})))
    assert run.main(["compare", str(paths["a"]), str(paths["b"])]) == 0
    assert run.main(["compare", str(paths["a"]), str(paths["c"])]) == 1
    assert "REGRESSION" in capsys.readouterr().out


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A 1 INT + 1 FP workload at 5% length, pinned in a private
    ``expected.json``; returns the pinned file's path."""
    monkeypatch.setitem(run.CONFIGS, "tiny", TINY)
    workload = run.Workload("tiny", "tiny", drawn=True)
    monkeypatch.setitem(run.WORKLOADS, "tiny", workload)
    monkeypatch.setattr(run, "draw", lambda seed: list(TINY_NAMES))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))
    rep = run.run_rep(workload, TINY_NAMES)
    assert sorted(rep["digests"]) == sorted(TINY_NAMES)
    assert rep["cpu_s"] > 0 and rep["peak_rss_mb"] > 10
    assert 0 < rep["setup_s"] < rep["study_s"] + 60
    with open(run.EXPECTED_PATH) as f:
        expected = json.load(f)
    expected["configs"]["tiny"] = {"config": TINY,
                                   "digests": rep["digests"]}
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED_PATH", str(path))
    return path


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_tiny_rep_end_to_end_through_child_and_wait4(tiny, capsys):
    argv = ["--workload", "tiny", "--seed", "0", "--seconds", "0",
            "--trace", "0"]
    assert run.main(argv) == 0
    result = last_json(capsys)
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert set(result["metrics"]) == set(run.declared("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tampered_digest_fails_the_run(tiny, capsys):
    expected = json.loads(tiny.read_text())
    digests = expected["configs"]["tiny"]["digests"]
    digests["gzip"] = "0" * 64
    tiny.write_text(json.dumps(expected))

    rep = run.run_rep(run.WORKLOADS["tiny"], TINY_NAMES)
    checked, matched = run.check_outputs(
        run.WORKLOADS["tiny"], TINY_NAMES, [rep], run.load_expected())
    assert (checked, matched) == (2, 1)  # outputs_ok = 0.5

    assert run.main(["--workload", "tiny", "--seed", "0", "--seconds",
                     "0", "--trace", "0"]) == 1
    assert last_json(capsys)["correct"] is False


def test_traced_study_matches_run_full_study(tmp_path):
    names, thresholds = ["gzip"], [5, 50]
    tracer, counts, traced, wall = child.traced_study(
        names, thresholds, 0.05, True, str(tmp_path))
    study = run_full_study(names=names, thresholds=thresholds,
                           steps_scale=0.05, cache_dir=None, jobs=1)
    got, want = traced["gzip"], study.benchmarks["gzip"]
    for t in thresholds:
        assert got.sd_bp[t] == want.sd_bp[t]
    assert sorted(got.perf) == sorted(want.perf)
    for t in want.perf:
        assert got.perf[t].total == want.perf[t].total
    assert child.result_digest(got) == child.result_digest(want)
    assert counts["core.navep_solves"] == len(thresholds)
    assert 0 < sum(tracer.busy.values()) <= wall

    path = tmp_path / "trace.json"
    tracer.write(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["name"] for e in events} >= set(child.LAYERS)
    assert {e["ph"] for e in events} == {"X"}


def test_refuses_a_directory_without_the_study(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit 2, no
    result line."""
    here = os.path.dirname(os.path.abspath(__file__))
    dest = tmp_path / "benchmarks" / "perf"
    dest.mkdir(parents=True)
    for name in ("run.py", "child.py", "expected.json"):
        shutil.copy(os.path.join(here, name), dest / name)
    shutil.copy(run.BENCHMARK_PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "paper-j2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
    assert "missing" in proc.stderr
