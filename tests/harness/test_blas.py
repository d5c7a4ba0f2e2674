"""The study runs on one OpenBLAS thread, whatever the caller's count."""

import os
import subprocess
import sys

import pytest

import repro
from repro import blas
from repro.harness import run_full_study
from repro.obs.registry import metrics_snapshot

needs_openblas = pytest.mark.skipif(
    blas.threads() is None, reason="OpenBLAS thread control not reachable")


def _run(code, **env_updates):
    """stdout of ``code`` in a fresh interpreter, BLAS env as given."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "OPENBLAS_", "OMP_"))}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    env.update(env_updates)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    return out.stdout.strip().splitlines()[-1]


def test_facts_report_core_and_threads():
    facts = blas.facts()
    assert set(facts) == {"core", "threads"}
    if blas.threads() is None:
        assert facts == {"core": blas.UNKNOWN, "threads": blas.UNKNOWN}
    else:
        assert facts["threads"] == blas.threads() >= 1


@needs_openblas
def test_one_thread_restores_the_callers_count():
    previous = blas.threads()
    blas.set_threads(2)
    try:
        with blas.one_thread():
            assert blas.threads() == 1
        assert blas.threads() == 2
    finally:
        blas.set_threads(previous)


@needs_openblas
def test_study_records_one_thread_and_restores_the_callers():
    previous = blas.threads()
    blas.set_threads(2)
    try:
        results = run_full_study(names=["gzip"], thresholds=[5, 50],
                                 steps_scale=0.02, include_perf=False,
                                 jobs=1, cache_dir=None)
        assert blas.threads() == 2
    finally:
        blas.set_threads(previous)
    assert results.manifest["blas"]["threads"] == 1
    assert results.manifest["blas"]["core"] == blas.facts()["core"]
    assert metrics_snapshot()["gauges"]["blas.threads"] == 1


@needs_openblas
def test_pool_workers_start_on_one_thread():
    code = ("from repro import blas\n"
            "from repro.harness.pool.worker import pool_worker_init\n"
            "blas.set_threads(2)\n"
            "pool_worker_init()\n"
            "print(blas.threads())\n")
    assert _run(code) == "1"


def test_paper_digests_do_not_depend_on_openblas_threads():
    """NAVEP's ``lstsq`` returns other last bits on more BLAS threads;
    these three benchmarks' paper-config results showed it."""
    code = ("import hashlib, json\n"
            "from dataclasses import asdict\n"
            "from repro.harness import run_full_study\n"
            "r = run_full_study(names=['crafty', 'gcc', 'perlbmk'], "
            "jobs=1, cache_dir=None)\n"
            "print(json.dumps({n: hashlib.sha256(json.dumps(asdict(b), "
            "sort_keys=True).encode()).hexdigest() "
            "for n, b in r.benchmarks.items()}))\n")
    default = _run(code)
    pinned = _run(code, OPENBLAS_NUM_THREADS="1")
    assert default == pinned
