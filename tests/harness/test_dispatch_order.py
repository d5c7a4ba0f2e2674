"""Largest-first dispatch: jobs run by ref step budget, outputs keep the
caller's order."""

import glob
import json

import pytest

from repro.harness import run_full_study
from repro.harness.pool.dispatcher import largest_first
from repro.obs.spans import clear_trace, trace_events
from repro.workloads import get_benchmark

KWARGS = dict(thresholds=[5, 50], steps_scale=0.02, include_perf=False)


# -- the key ------------------------------------------------------------------


def test_largest_step_budget_goes_first():
    assert largest_first(["gzip", "wupwise", "mcf", "swim"], 1.0) == \
        ["wupwise", "mcf", "swim", "gzip"]


def test_steps_scale_is_applied_before_comparing():
    # At full scale swim (2M ref steps) outranks gzip (1.6M); at 1% both
    # hit the 20k floor and tie, while mcf (32k) still leads.
    assert get_benchmark("gzip").scaled(0.01).run_steps == \
        get_benchmark("swim").scaled(0.01).run_steps
    assert largest_first(["gzip", "swim", "mcf"], 1.0) == \
        ["mcf", "swim", "gzip"]
    assert largest_first(["gzip", "swim", "mcf"], 0.01) == \
        ["mcf", "gzip", "swim"]


def test_ties_keep_the_callers_order():
    same = ["gzip", "crafty", "bzip2", "vpr"]  # all 1.6M ref steps
    assert largest_first(same, 1.0) == same
    assert largest_first(same[::-1], 1.0) == same[::-1]


def test_unknown_name_sorts_last_without_raising():
    assert largest_first(["nosuch", "gzip", "wupwise"], 1.0) == \
        ["wupwise", "gzip", "nosuch"]


@pytest.mark.parametrize("jobs,attempts", [(1, 2), (2, 3)])
def test_unknown_name_is_still_quarantined_by_its_job(jobs, attempts):
    # Inline: the first try and one retry.  Pool: one more, in-process.
    results = run_full_study(names=["nosuch", "gzip"], cache_dir=None,
                             jobs=jobs, retries=1, **KWARGS)
    failure = results.manifest["failed_benchmarks"]["nosuch"]
    assert failure["reason"] == "error"
    assert failure["attempts"] == attempts
    assert "unknown benchmark 'nosuch'" in failure["error"]
    assert list(results.benchmarks) == ["gzip"]
    assert results.manifest["dispatch"]["order"] == ["gzip", "nosuch"]


# -- outputs keep the caller's order ------------------------------------------


def test_serial_study_runs_largest_first_and_reports_in_caller_order(
        tmp_path):
    names = ["gzip", "swim", "mcf"]
    clear_trace()
    results = run_full_study(names=names, cache_dir=str(tmp_path), jobs=1,
                             **KWARGS)
    studies = sorted((e for e in trace_events()
                      if e["name"] == "study_benchmark"),
                     key=lambda e: e["ts"])
    assert [e["args"]["bench"] for e in studies] == ["mcf", "swim", "gzip"]
    manifest = results.manifest
    assert manifest["dispatch"]["order"] == ["mcf", "swim", "gzip"]
    assert list(results.benchmarks) == names
    assert list(manifest["timings"]) == names
    assert manifest["benchmarks"] == names
    (aggregate,) = glob.glob(str(tmp_path / "study-*.json"))
    with open(aggregate) as f:
        payload = json.load(f)
    assert list(payload["shards"]) == names
    assert list(payload["manifest"]["timings"]) == names
