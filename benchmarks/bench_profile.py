"""Micro-benchmark: profiling & attribution gates.

Runs the reduced study under the observability substrate and enforces
the attribution contract PR-over-PR::

    PYTHONPATH=src python benchmarks/bench_profile.py --out BENCH_profile.json

Three gates, any failure exits non-zero:

* **attribution** — the phase profiler must attribute at least
  ``MIN_COVERAGE`` (95%) of a serial run's wall time to named phases;
* **dispatch** — a parallel run's manifest must carry a per-job
  dispatch breakdown whose segments account for the jobs dispatched;
* **overhead** — the study with observability enabled must stay within
  ``MAX_OVERHEAD`` (2%) of the same study with :func:`repro.obs.disable`
  in force, best-of-``--repeat`` wall times on both sides.

Run as a script (pytest collects this file but finds no tests in it).
"""

import argparse
import json
import os
import time

BENCH_NAMES = ["gzip", "mcf", "perlbmk", "twolf",       # INT
               "art", "swim", "ammp", "equake"]         # FP
BENCH_THRESHOLDS = [5, 50, 500, 5000]
BENCH_SCALE = 0.5

#: Minimum fraction of wall time the profiler must attribute to phases.
MIN_COVERAGE = 0.95

#: Maximum tolerated wall-time cost of the observability substrate.
MAX_OVERHEAD = 0.02


def _run_study(jobs, scale):
    from repro.harness import run_full_study

    started = time.perf_counter()
    results = run_full_study(names=BENCH_NAMES,
                             thresholds=BENCH_THRESHOLDS,
                             steps_scale=scale, include_perf=True,
                             cache_dir=None, jobs=jobs)
    return time.perf_counter() - started, results


def bench_attribution(scale):
    """Serial run: the manifest's phase profile and its coverage."""
    seconds, results = _run_study(jobs=1, scale=scale)
    profile = results.manifest["profile"]
    return seconds, profile


def bench_dispatch(jobs, scale):
    """Parallel run: the manifest's dispatch breakdown."""
    seconds, results = _run_study(jobs=jobs, scale=scale)
    return seconds, results.manifest["dispatch"]


def bench_overhead(scale, repeat):
    """Best-of-``repeat`` study wall time, obs enabled vs disabled.

    The two sides interleave (and alternate order each round) so slow
    background drift on the host charges both sides equally instead of
    whichever block ran second.
    """
    from repro import obs

    def timed(configure):
        configure()
        try:
            seconds, _ = _run_study(jobs=1, scale=scale)
        finally:
            obs.enable()
        return seconds

    enabled_times, disabled_times = [], []
    for round_index in range(repeat):
        sides = [(enabled_times, obs.enable), (disabled_times, obs.disable)]
        if round_index % 2:
            sides.reverse()
        for times, configure in sides:
            times.append(timed(configure))

    enabled, disabled = min(enabled_times), min(disabled_times)
    overhead = (enabled - disabled) / disabled if disabled else 0.0
    return enabled, disabled, overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_profile.json",
                        help="output JSON path")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker count (default: all CPUs)")
    parser.add_argument("--scale", type=float, default=BENCH_SCALE,
                        help="steps_scale of the reduced study")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per side of the overhead gate")
    args = parser.parse_args(argv)
    jobs = args.jobs or os.cpu_count() or 1

    print(f"profile gates: {len(BENCH_NAMES)} benchmarks x "
          f"{len(BENCH_THRESHOLDS)} thresholds at scale {args.scale}")

    serial_seconds, profile = bench_attribution(args.scale)
    coverage = profile["coverage"]
    top = sorted(profile["phases"].items(),
                 key=lambda kv: kv[1]["seconds"], reverse=True)[:3]
    hot = ", ".join(f"{name} {data['seconds']:.2f}s" for name, data in top)
    print(f"attribution: {coverage:.1%} of {serial_seconds:.2f}s "
          f"({hot})")

    dispatch_seconds, dispatch = bench_dispatch(jobs, args.scale)
    print(f"dispatch (jobs={jobs}): {dispatch['records']} records, "
          f"overhead {dispatch['overhead_ratio']:.1%}, "
          f"effective parallelism "
          f"{dispatch['effective_parallelism']:.2f}")

    enabled, disabled, overhead = bench_overhead(args.scale, args.repeat)
    print(f"overhead: enabled {enabled:.2f}s vs disabled "
          f"{disabled:.2f}s ({overhead:+.2%}, best of {args.repeat})")

    gates = {
        "attribution": coverage >= MIN_COVERAGE,
        "dispatch": (dispatch["records"] >= len(BENCH_NAMES)
                     and dispatch["segments_seconds"]["execute"] > 0),
        "overhead": overhead <= MAX_OVERHEAD,
    }
    payload = {
        "benchmarks": BENCH_NAMES,
        "thresholds": BENCH_THRESHOLDS,
        "steps_scale": args.scale,
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "serial_seconds": round(serial_seconds, 3),
        "profile": {
            "coverage": round(coverage, 4),
            "total_seconds": round(profile["total_seconds"], 3),
            "phases": {name: round(data["seconds"], 3)
                       for name, data in profile["phases"].items()},
        },
        "dispatch": {
            "seconds": round(dispatch_seconds, 3),
            "records": dispatch["records"],
            "overhead_ratio": round(dispatch["overhead_ratio"], 4),
            "effective_parallelism":
                round(dispatch["effective_parallelism"], 3),
            "segments_seconds": {k: round(v, 3) for k, v in
                                 dispatch["segments_seconds"].items()},
        },
        "overhead": {
            "enabled_seconds": round(enabled, 3),
            "disabled_seconds": round(disabled, 3),
            "overhead_ratio": round(overhead, 4),
            "repeat": args.repeat,
        },
        "gates": gates,
    }
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")

    failed = [name for name, ok in gates.items() if not ok]
    if failed:
        print(f"GATE FAILURE: {', '.join(failed)}")
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
