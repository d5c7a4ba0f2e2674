"""Fault drill: the study under injected crashes, hangs and torn writes.

Runs the reduced study three ways — fault-free serial (the reference),
with a worker crash plus a hung worker injected into a parallel run
(must complete, retry the crash, quarantine only the hang, and keep the
survivors' figure data byte-identical), and with a torn cache write
(must recover on the next run) — then measures the dispatcher overhead
the fault machinery adds to a healthy parallel run.  Results land in
``BENCH_faults.json``; the exit code is non-zero if any drill property
fails, so CI can assert quarantine-not-abort directly::

    PYTHONPATH=src python benchmarks/bench_faults.py --out BENCH_faults.json

Run as a script (pytest collects this file but finds no tests in it).
"""

import argparse
import json
import os
import time

BENCH_NAMES = ["gzip", "mcf", "twolf", "art", "swim", "equake"]
BENCH_THRESHOLDS = [5, 50, 500]
BENCH_SCALE = 0.1
CRASH_BENCH = "gzip"
HANG_BENCH = "mcf"
JOB_TIMEOUT = 5.0


def _strip_manifest_bytes(results) -> bytes:
    """Serialised figure data with the (timing-bearing) manifest removed."""
    manifest, results.manifest = results.manifest, None
    try:
        from repro.harness.results import _result_to_dict
        payload = {name: _result_to_dict(r)
                   for name, r in results.benchmarks.items()}
        return json.dumps(payload, sort_keys=True).encode()
    finally:
        results.manifest = manifest


def _run_study(jobs, scale, cache_dir=None, **kwargs):
    from repro.harness import run_full_study

    started = time.perf_counter()
    results = run_full_study(names=BENCH_NAMES,
                             thresholds=BENCH_THRESHOLDS,
                             steps_scale=scale, include_perf=False,
                             cache_dir=cache_dir, jobs=jobs, **kwargs)
    return time.perf_counter() - started, results


def drill_crash_and_hang(jobs, scale, reference):
    """One crash + one hang: complete, retry, quarantine, stay identical."""
    from repro.harness.faults import HANG_SECONDS_ENV

    os.environ[HANG_SECONDS_ENV] = "60"
    try:
        seconds, faulted = _run_study(
            jobs=jobs, scale=scale, retries=2, job_timeout=JOB_TIMEOUT,
            fault_spec=f"{CRASH_BENCH}:crash:1,{HANG_BENCH}:hang:1")
    finally:
        del os.environ[HANG_SECONDS_ENV]

    failed = (faulted.manifest or {}).get("failed_benchmarks") or {}
    survivors = set(BENCH_NAMES) - {HANG_BENCH}
    checks = {
        "completed": set(faulted.benchmarks) == survivors,
        "crash_retried": CRASH_BENCH in faulted.benchmarks,
        "only_hang_quarantined": (
            list(failed) == [HANG_BENCH]
            and failed[HANG_BENCH]["reason"] == "timeout"),
    }
    if checks["completed"]:
        trimmed = dict(reference.benchmarks)
        reference.benchmarks = {n: r for n, r in trimmed.items()
                                if n != HANG_BENCH}
        try:
            checks["survivors_identical"] = (
                _strip_manifest_bytes(reference)
                == _strip_manifest_bytes(faulted))
        finally:
            reference.benchmarks = trimmed
    else:
        checks["survivors_identical"] = False
    return seconds, checks


def drill_torn_write(jobs, scale, tmp_dir):
    """A torn shard write leaves no unrecoverable file behind."""
    cache_dir = os.path.join(tmp_dir, "fault-drill-cache")
    _run_study(jobs=jobs, scale=scale, cache_dir=cache_dir,
               fault_spec="shard:torn-write:1")
    debris = [f for f in os.listdir(cache_dir) if f.endswith(".tmp")]
    shards = [f for f in os.listdir(cache_dir)
              if f.startswith("shard-") and f.endswith(".json")]
    # One shard's write was torn; the healthy rerun recomputes just it.
    seconds, results = _run_study(jobs=jobs, scale=scale,
                                  cache_dir=cache_dir)
    checks = {
        "one_shard_lost": len(shards) == len(BENCH_NAMES) - 1,
        "debris_is_partial_tmp_only": len(debris) == 1,
        "recovered": set(results.benchmarks) == set(BENCH_NAMES),
    }
    return seconds, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_faults.json",
                        help="output JSON path")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker count (default: all CPUs, "
                             "min 2 so the pool paths are exercised)")
    parser.add_argument("--scale", type=float, default=BENCH_SCALE,
                        help="steps_scale of the reduced study")
    args = parser.parse_args(argv)

    import tempfile

    jobs = args.jobs or max(2, os.cpu_count() or 1)
    print(f"fault drill: {len(BENCH_NAMES)} benchmarks x "
          f"{len(BENCH_THRESHOLDS)} thresholds at scale {args.scale}, "
          f"jobs={jobs}")

    clean_serial_seconds, reference = _run_study(jobs=1, scale=args.scale)
    print(f"fault-free serial reference: {clean_serial_seconds:8.2f}s")
    clean_parallel_seconds, _ = _run_study(jobs=jobs, scale=args.scale)
    print(f"fault-free parallel:         {clean_parallel_seconds:8.2f}s")

    drill_seconds, drill = drill_crash_and_hang(jobs, args.scale,
                                                reference)
    print(f"crash+hang drill:            {drill_seconds:8.2f}s  {drill}")

    with tempfile.TemporaryDirectory() as tmp_dir:
        torn_seconds, torn = drill_torn_write(1, args.scale, tmp_dir)
    print(f"torn-write drill:            {torn_seconds:8.2f}s  {torn}")

    ok = all(drill.values()) and all(torn.values())
    overhead = (clean_parallel_seconds
                and drill_seconds / clean_parallel_seconds)
    print(f"drill wall time vs healthy parallel: {overhead:.2f}x "
          f"(includes the {JOB_TIMEOUT}s hang window)")
    print(f"all drill properties hold: {ok}")

    payload = {
        "benchmarks": BENCH_NAMES,
        "thresholds": BENCH_THRESHOLDS,
        "steps_scale": args.scale,
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "job_timeout": JOB_TIMEOUT,
        "clean_serial_seconds": round(clean_serial_seconds, 3),
        "clean_parallel_seconds": round(clean_parallel_seconds, 3),
        "crash_hang_drill": dict(drill,
                                 seconds=round(drill_seconds, 3)),
        "torn_write_drill": dict(torn, seconds=round(torn_seconds, 3)),
        "ok": ok,
    }
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
