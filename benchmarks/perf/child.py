"""The half of the benchmark that runs inside a fresh child process.

``run.py`` spawns ``python3 child.py '<spec json>'`` once per
measurement, so every timed rep starts cold, as a CLI user's run does.
The child imports the study machinery, notes when that import is done
(the end of ``setup_s``), runs what the spec asks for, and writes one
JSON result to ``spec["out"]``.  Modes:

* ``probe`` — import only; reports the machine facts numpy can see.
* ``rep`` — one untraced :func:`repro.harness.run_full_study` call
  through its public arguments, plus SHA-256 digests of every
  benchmark result and (for the paper sweep) of figures 8-18.
* ``trace`` — an untraced reference study, then :func:`traced_study`,
  which mirrors ``study_benchmark`` layer call by layer call with a
  span around each, and writes a Chrome trace.

Only public layer functions are called, so refactors behind them leave
the benchmark intact.
"""

import hashlib
import json
import os
import platform
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict

import numpy

from repro.core import (compare_flat_profiles, compare_inip_to_avep,
                        compare_train_regions)
from repro.dbt import DBTConfig, MultiThresholdReplay, ReplayDBT
from repro.harness import FIGURES, render, run_full_study
from repro.harness.results import (BenchmarkResult, PerfPoint, load_shard,
                                   save_shard)
from repro.perfmodel import DEFAULT_COSTS, CostTables, estimate_cost
from repro.profiles import avep_from_trace
from repro.workloads import (BASE_THRESHOLD, SIM_THRESHOLDS, all_benchmarks,
                             get_benchmark)

#: End of ``setup_s``: the study machinery (``repro.harness`` and the
#: layers it pulls in) is imported.
READY = time.perf_counter()

#: Layers whose busy time the traced run reports, in pipeline order.
LAYERS = ("workloads.build", "stochastic.walk", "profiles.avep",
          "core.train_compare", "dbt.sweep", "dbt.snapshot", "core.navep",
          "perfmodel.tables", "dbt.base_replay", "dbt.tmap",
          "perfmodel.estimate", "harness.shard_write", "harness.shard_read")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result: BenchmarkResult) -> str:
    """The digest ``expected.json`` pins for one benchmark's result."""
    return sha256(json.dumps(asdict(result), sort_keys=True))


def study_args(spec):
    """``run_full_study`` arguments of a spec (``None`` = paper default)."""
    return dict(names=spec["names"],
                thresholds=spec["thresholds"] or SIM_THRESHOLDS,
                steps_scale=spec["steps_scale"],
                include_perf=spec["include_perf"])


def timed_study(spec, jobs, cache_dir):
    started = time.perf_counter()
    results = run_full_study(cache_dir=cache_dir, jobs=jobs,
                             **study_args(spec))
    return time.perf_counter() - started, results


def rep(spec):
    """One untraced study, as ``repro-study`` would run it."""
    study_s, results = timed_study(spec, spec["jobs"], spec["cache_dir"])
    manifest = results.manifest
    out = {"study_s": study_s,
           "timings": manifest["timings"],
           "failed_benchmarks": sorted(manifest["failed_benchmarks"]),
           "digests": {name: result_digest(r)
                       for name, r in results.benchmarks.items()}}
    if spec["figures"]:
        out["figures"] = {f"{figure.__name__}.txt":
                          sha256(render(figure(results)) + "\n")
                          for figure in FIGURES.values()}
    return out


class Tracer:
    """In-memory spans around layer calls, exported as a Chrome trace."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.events = []
        self.busy = dict.fromkeys(LAYERS, 0.0)

    @contextmanager
    def span(self, name, **args):
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if name in LAYERS:
                self.busy[name] += end - start
            self.events.append({
                "name": name, "ph": "X", "pid": os.getpid(), "tid": 0,
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6, "args": args})

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"traceEvents": self.events,
                       "displayTimeUnit": "ms"}, f)


def traced_benchmark(tracer, counts, name, thresholds, steps_scale,
                     include_perf, shard_dir):
    """``study_benchmark`` for one benchmark, one span per layer call.

    Returns the same :class:`BenchmarkResult` ``run_full_study`` does;
    the trace run checks it against ``expected.json``.
    """
    config = DBTConfig()
    span = tracer.span
    with span("workloads.build", bench=name):
        benchmark = get_benchmark(name).scaled(steps_scale)
        benchmark.behaviors()
        loops = benchmark.loop_forest()
    cfg = benchmark.cfg
    with span("stochastic.walk", bench=name):
        ref = benchmark.trace("ref")
        train = benchmark.trace("train")
    counts["stochastic.steps"] += len(ref) + len(train)

    with span("profiles.avep", bench=name):
        avep = avep_from_trace(ref, input_name="ref", label="AVEP")
        train_profile = avep_from_trace(train, input_name="train",
                                        label="INIP(train)")
    with span("core.train_compare", bench=name):
        train_cmp = compare_flat_profiles(cfg, train_profile, avep)
        train_regions = compare_train_regions(cfg, train_profile, avep,
                                              config=config, loops=loops)
    with span("dbt.sweep", bench=name, thresholds=len(thresholds)):
        multi = MultiThresholdReplay(ref, cfg, thresholds,
                                     base_config=config, loops=loops).run()

    result = BenchmarkResult(
        name=name, suite=benchmark.suite, thresholds=sorted(thresholds),
        sd_bp={}, bp_mismatch={}, sd_cp={}, sd_lp={}, lp_mismatch={},
        train_sd_bp=train_cmp.sd_bp,
        train_bp_mismatch=train_cmp.bp_mismatch,
        train_sd_cp=train_regions.sd_cp, train_sd_lp=train_regions.sd_lp,
        profiling_ops={}, train_ops=train_profile.profiling_ops,
        avep_ops=avep.profiling_ops)
    for t in multi.thresholds:
        with span("dbt.snapshot", bench=name, threshold=t):
            snapshot = multi.state(t).snapshot(input_name="ref")
        with span("core.navep", bench=name, threshold=t):
            comparison = compare_inip_to_avep(cfg, snapshot, avep)
        counts["core.navep_solves"] += 1
        counts["dbt.regions"] += len(snapshot.regions)
        result.sd_bp[t] = comparison.sd_bp
        result.bp_mismatch[t] = comparison.bp_mismatch
        result.sd_cp[t] = comparison.sd_cp
        result.sd_lp[t] = comparison.sd_lp
        result.lp_mismatch[t] = comparison.lp_mismatch
        result.profiling_ops[t] = snapshot.profiling_ops
        result.num_regions[t] = len(snapshot.regions)

    if include_perf:
        sizes = benchmark.workload.sizes
        with span("perfmodel.tables", bench=name):
            tables = CostTables(ref, sizes, DEFAULT_COSTS)
        for t in sorted(set(thresholds) | {BASE_THRESHOLD}):
            if t in multi.states:
                replay = multi.state(t)
            else:
                with span("dbt.base_replay", bench=name, threshold=t):
                    replay = ReplayDBT(ref, cfg, config.with_threshold(t),
                                       loops=loops).run()
            with span("dbt.tmap", bench=name, threshold=t):
                tmap = replay.translation_map()
            with span("perfmodel.estimate", bench=name, threshold=t):
                cost = estimate_cost(ref, tmap, sizes, DEFAULT_COSTS,
                                     tables=tables)
            counts["perfmodel.estimates"] += 1
            counts["perfmodel.priced_steps"] += len(ref)
            result.perf[t] = PerfPoint(
                total=cost.total, unoptimized=cost.unoptimized,
                optimized=cost.optimized, side_exits=cost.side_exits,
                translation=cost.translation,
                num_side_exits=cost.num_side_exits,
                optimized_fraction=cost.optimized_fraction)

    path = os.path.join(shard_dir, f"shard-{name}.json")
    with span("harness.shard_write", bench=name):
        save_shard(path, result, "traced", 0.0)
    with span("harness.shard_read", bench=name):
        load_shard(path, expect_name=name)
    return result


def traced_study(names, thresholds, steps_scale, include_perf, shard_dir):
    """Every benchmark through :func:`traced_benchmark`, serially.

    Returns ``(tracer, counts, results, wall seconds)``.
    """
    tracer = Tracer()
    counts = defaultdict(int)
    results = {}
    started = time.perf_counter()
    with tracer.span("study", benchmarks=len(names)):
        for name in names:
            with tracer.span("benchmark", bench=name):
                results[name] = traced_benchmark(
                    tracer, counts, name, thresholds, steps_scale,
                    include_perf, shard_dir)
    return tracer, counts, results, time.perf_counter() - started


def trace(spec):
    """Per-layer numbers for one workload, with their untraced reference."""
    args = study_args(spec)
    names = args["names"] or [b.name for b in all_benchmarks()]
    serial_s, results = timed_study(spec, 1, spec["cache_dir"])
    dispatch = results.manifest["dispatch"]
    if spec["jobs"] != 1:
        _, fanned = timed_study(spec, spec["jobs"],
                                os.path.join(spec["cache_dir"], "fanned"))
        dispatch = fanned.manifest["dispatch"]
    tracer, counts, traced, wall = traced_study(
        names, list(args["thresholds"]), args["steps_scale"],
        args["include_perf"], spec["cache_dir"])
    tracer.write(spec["trace_out"])
    return {"untraced_s": serial_s, "traced_s": wall,
            "busy": dict(tracer.busy), "counts": dict(counts),
            "dispatch": {k: v for k, v in dispatch.items()
                         if k != "records_detail"},
            "digests": {name: result_digest(r)
                        for name, r in traced.items()}}


def probe(spec):
    """Versions and BLAS build facts, as the reps' environment sees them."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": {key: blas.get(key) for key in
                     ("name", "version", "openblas configuration")},
            "blas_threads": {key: os.environ.get(key) for key in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


MODES = {"probe": probe, "rep": rep, "trace": trace}


def main():
    spec = json.loads(sys.argv[1])
    out = {"ready": READY}
    out.update(MODES[spec["mode"]](spec))
    with open(spec["out"], "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main()
