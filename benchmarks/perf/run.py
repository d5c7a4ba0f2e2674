"""Benchmark of the INIP/AVEP study, end to end and layer by layer.

One workload per invocation, as ``BENCHMARK.json`` declares it::

    python3 benchmarks/perf/run.py --workload paper-j2 --seed 0 --seconds 30 --trace 0

runs timed reps of the workload until ``--seconds`` is spent, each rep
in a fresh child process (``child.py``), and prints every end-to-end
metric (``--trace 0``) or every per-layer metric from one traced run
(``--trace 1``).  Every rep's results are checked against the SHA-256
digests pinned in ``expected.json`` and, for the paper sweep, against
the committed ``results/fig*.txt``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Other commands::

    python3 benchmarks/perf/run.py set --out benchmarks/perf/BENCH.json
    python3 benchmarks/perf/run.py compare A.json B.json
    python3 benchmarks/perf/run.py pin

``set`` makes ten runs of every workload round-robin (alternating the
order each round) plus one traced run each, and writes the median and
quartiles of the runs' values.  ``compare`` applies the
``BENCHMARK.json`` bound of every (workload, end-to-end metric) pair to
two sets and exits 1 on any regression.  ``pin`` regenerates
``expected.json``.

Exit codes: 0 ok, 1 wrong outputs or a regression, 2 unusable checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "results")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: One BLAS thread per process, so ``jobs=2`` keeps two busy threads on
#: two cores.  It also fixes the NAVEP solve's summation order: under
#: default OpenBLAS threading ``crafty``, ``gcc`` and ``perlbmk`` results
#: differ in their last bits, and ``expected.json`` pins one-thread runs.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

#: Seconds a child may take before it is killed (a serial paper sweep,
#: as ``pin`` and the traced runs make, takes ~17).
CHILD_TIMEOUT = 150.0
POLL_SECONDS = 0.02

#: Import-only children before and after the reps of an untraced run,
#: for a ``setup_s`` median that does not rest on the one or two reps a
#: long workload fits, and spans the run rather than its start.
SETUP_PROBES = 5

#: Runs of each workload in a ``set``, interleaved round-robin.  A set's
#: quartiles are those of its runs' values, the spread ``compare`` and
#: any ten runs of a workload see; a single rep is noisier than a run.
SET_RUNS = 10

#: Study configurations as ``run_full_study`` arguments; ``None``
#: thresholds is the paper's 13-point ``SIM_THRESHOLDS`` sweep.
CONFIGS = {
    "paper": {"thresholds": None, "steps_scale": 1.0,
              "include_perf": True},
    "no-perf": {"thresholds": None, "steps_scale": 1.0,
                "include_perf": False},
    "reduced": {"thresholds": [5, 50, 500, 5000], "steps_scale": 0.5,
                "include_perf": True},
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a study config and how it is dispatched.

    ``drawn`` takes the benchmarks from the seeded reduced draw instead
    of all 26; ``figures`` also compares figures 8-18 with ``results/``.
    """

    name: str
    config: str
    jobs: int = 1
    drawn: bool = False
    figures: bool = False


#: There is no serial paper-sweep workload: at ~16 s a rep, a run fits
#: one, and one rep's wall time moved by 30% between runs on a shared
#: 2-core VM.  ``paper-j2`` runs the same sweep the way the study CLI
#: does on two cores (``jobs`` defaults to every CPU), two or three reps
#: a run.
WORKLOADS = {w.name: w for w in (
    Workload("paper-j2", "paper", jobs=2, figures=True),
    Workload("no-perf", "no-perf"),
    Workload("reduced", "reduced", drawn=True),
)}

#: The reduced draw's pool: job seconds of each benchmark under the
#: ``reduced`` config (median of 8 serial runs, 2-core x86 VM).  Only
#: used to balance draws.  ``mcf`` and ``wupwise`` are left out: their
#: runs are twice their suite's length, so either one would set a
#: draw's peak memory and a quarter of its time, and runs under
#: different seeds would not compare.
REDUCED_POOL = {
    "int": {"bzip2": 0.241, "crafty": 0.243, "eon": 0.208, "gap": 0.203,
            "gcc": 0.212, "gzip": 0.180, "parser": 0.235,
            "perlbmk": 0.188, "twolf": 0.197, "vortex": 0.245,
            "vpr": 0.202},
    "fp": {"ammp": 0.184, "applu": 0.176, "apsi": 0.170, "art": 0.179,
           "equake": 0.191, "facerec": 0.159, "fma3d": 0.170,
           "galgel": 0.166, "lucas": 0.170, "mesa": 0.190,
           "mgrid": 0.172, "sixtrack": 0.158, "swim": 0.166},
}
DRAW_PER_SUITE = 4
#: A draw is kept only if its total and median cost are this close to
#: the pool's expectation, so every seed asks for the same work.
DRAW_TOLERANCE = 0.01

#: Percentiles reported for pooled per-benchmark job seconds; one is
#: reported only when at least ``MIN_BEYOND`` samples lie above it.
PERCENTILES = (50, 75, 90, 95, 99)
MIN_BEYOND = 10


class CheckoutError(RuntimeError):
    """The directory holds no buildable study (exit code 2)."""


class ChildFailed(RuntimeError):
    """A child process exited non-zero or timed out."""


# -- workloads ---------------------------------------------------------------


def draw(seed: int) -> List[str]:
    """The seeded reduced draw: 4 INT + 4 FP benchmarks.

    Draws whose total or median pool cost strays from the expectation
    by more than ``DRAW_TOLERANCE`` are redrawn from the same stream,
    so a seed always gives the same names and every seed the same work.
    """
    rng = random.Random(seed)
    all_costs = [c for pool in REDUCED_POOL.values() for c in pool.values()]
    target_total = sum(DRAW_PER_SUITE * statistics.mean(pool.values())
                       for pool in REDUCED_POOL.values())
    target_median = statistics.median(all_costs)
    while True:
        picks = {suite: rng.sample(sorted(pool), DRAW_PER_SUITE)
                 for suite, pool in REDUCED_POOL.items()}
        costs = [REDUCED_POOL[suite][name]
                 for suite, names in picks.items() for name in names]
        if (abs(sum(costs) / target_total - 1) <= DRAW_TOLERANCE
                and abs(statistics.median(costs) / target_median - 1)
                <= DRAW_TOLERANCE):
            return sorted(picks["int"]) + sorted(picks["fp"])


def names_for(workload: Workload, seed: int) -> Optional[List[str]]:
    """Benchmarks the workload runs; ``None`` means all 26, in the
    order the study CLI uses."""
    return draw(seed) if workload.drawn else None


# -- statistics --------------------------------------------------------------


def quartiles(values: List[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def reportable_percentiles(n: int) -> List[int]:
    """The percentiles of ``PERCENTILES`` with ``MIN_BEYOND`` of ``n``
    samples above them."""
    return [p for p in PERCENTILES if n * (100 - p) / 100 >= MIN_BEYOND]


def percentile(values: List[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def summary(values: List[float], value: Optional[float] = None,
            n: Optional[int] = None) -> Dict:
    """Central value, quartiles and sample count of per-rep values."""
    q1, median, q3 = quartiles(values)
    return {"value": median if value is None else value, "q1": q1,
            "q3": q3, "n": len(values) if n is None else n,
            "values": values}


# -- child processes ---------------------------------------------------------


def check_checkout() -> None:
    """Refuse to run anywhere the study sources and figures are missing."""
    for path in (os.path.join(SRC, "repro", "harness", "__init__.py"),
                 RESULTS, BENCHMARK_PATH):
        if not os.path.exists(path):
            raise CheckoutError(f"{os.path.relpath(path, ROOT)} is missing; "
                                f"run from the root of a full checkout")


def child_env(tmp: str) -> Dict[str, str]:
    """The reps' environment: no ``REPRO_*`` knobs, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(BLAS_ENV)
    env["TMPDIR"] = tmp
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def stop_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(POLL_SECONDS)


def reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` with ``os.wait4``; returns ``(exit code, rusage)``.

    The rusage covers the child and every descendant it waited for, so
    pool workers count towards CPU time and peak memory.
    """
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(POLL_SECONDS)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        stop_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def spawn(spec: Dict):
    """Run ``child.py`` on ``spec`` in a fresh process group.

    Returns ``(child output, rusage, spawn time)``; the spawn time is a
    ``time.perf_counter`` reading, comparable with the child's own.
    """
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="child-", dir=OUT)
    try:
        spec = dict(spec, out=os.path.join(tmp, "out.json"),
                    cache_dir=os.path.join(tmp, "cache"))
        log_path = os.path.join(tmp, "child.log")
        with open(log_path, "w") as log:
            spawned = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, CHILD, json.dumps(spec)], cwd=ROOT,
                env=child_env(tmp), stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            code, usage = reap(proc, CHILD_TIMEOUT)
        if code != 0:
            with open(log_path) as f:
                tail = f.read()[-2000:]
            raise ChildFailed(f"{spec['mode']} child exited with {code}:\n"
                              f"{tail}")
        with open(spec["out"]) as f:
            return json.load(f), usage, spawned
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def study_spec(workload: Workload, names: Optional[List[str]]) -> Dict:
    return dict(CONFIGS[workload.config], names=names, jobs=workload.jobs,
                figures=workload.figures)


def probe() -> Dict:
    """One import-only child: its ``setup_s`` and the machine facts."""
    out, _, spawned = spawn({"mode": "probe"})
    out["setup_s"] = out["ready"] - spawned
    return out


def run_rep(workload: Workload, names: Optional[List[str]]) -> Dict:
    """One timed rep of ``workload`` in a fresh child."""
    load_before = os.getloadavg()[0]
    out, usage, spawned = spawn(dict(study_spec(workload, names),
                                     mode="rep"))
    cpu_s = usage.ru_utime + usage.ru_stime
    return {"setup_s": out["ready"] - spawned, "study_s": out["study_s"],
            "cpu_s": cpu_s, "peak_rss_mb": usage.ru_maxrss / 1024,
            "timings": out["timings"], "failed": out["failed_benchmarks"],
            "digests": out["digests"], "figures": out.get("figures"),
            # Pool workers the child never reaped would be missing from
            # the rusage: their job seconds would exceed the tree's CPU.
            "unreaped": (workload.jobs > 1 and
                         cpu_s < 0.9 * sum(out["timings"].values())),
            "load": [load_before, os.getloadavg()[0]]}


def run_trace(workload: Workload, names: Optional[List[str]]) -> Dict:
    """The traced run of ``workload`` (Chrome trace under ``out/``)."""
    os.makedirs(OUT, exist_ok=True)
    trace_out = os.path.join(OUT, f"trace-{workload.name}.json")
    out, _, _ = spawn(dict(study_spec(workload, names), mode="trace",
                           trace_out=trace_out))
    out["trace_out"] = os.path.relpath(trace_out, ROOT)
    return out


# -- output checks -----------------------------------------------------------


def load_expected() -> Dict:
    """``expected.json``, refusing pins made under another config."""
    try:
        with open(EXPECTED_PATH) as f:
            expected = json.load(f)
    except FileNotFoundError:
        raise CheckoutError("expected.json is missing; run pin") from None
    for name, config in CONFIGS.items():
        if expected["configs"].get(name, {}).get("config") != config:
            raise CheckoutError(f"expected.json pins no digests for the "
                                f"current {name!r} config; rerun pin")
    return expected


def sha256_file(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except FileNotFoundError:
        return None


def expected_names(workload: Workload, names: Optional[List[str]],
                   expected: Dict) -> List[str]:
    return names or sorted(expected["configs"][workload.config]["digests"])


def check_outputs(workload: Workload, names: Optional[List[str]],
                  outputs: List[Dict], expected: Dict):
    """``(checked, matched)`` over every digest and figure of every run."""
    pinned = expected["configs"][workload.config]["digests"]
    figures = {}
    checked = matched = 0
    for out in outputs:
        for name in expected_names(workload, names, expected):
            checked += 1
            matched += out["digests"].get(name) == pinned[name]
        for fname, digest in (out.get("figures") or {}).items():
            if fname not in figures:
                figures[fname] = sha256_file(os.path.join(RESULTS, fname))
            checked += 1
            matched += digest == figures[fname]
    return checked, matched


# -- metrics -----------------------------------------------------------------


def declared(kind: str) -> Dict[str, Dict]:
    """The ``end_to_end`` or ``per_layer`` metrics of ``BENCHMARK.json``."""
    with open(BENCHMARK_PATH) as f:
        return {m["name"]: m for m in json.load(f)[kind]}


def end_to_end(reps: List[Dict], setups: List[float]) -> Dict[str, Dict]:
    """End-to-end metric summaries over timed reps.

    ``bench_s`` pools every rep's per-benchmark job seconds (from the
    manifest ``timings``); its value is the pooled percentile and its
    quartiles are those of the per-rep percentiles.
    """
    jobs = [s for rep in reps for s in rep["timings"].values()]
    per_rep = {key: [rep[key] for rep in reps]
               for key in ("study_s", "cpu_s", "peak_rss_mb")}
    metrics = {key: summary(values) for key, values in per_rep.items()}
    metrics["setup_s"] = summary(setups + [rep["setup_s"] for rep in reps])
    for p in sorted({50, *reportable_percentiles(len(jobs))}):
        metrics[f"bench_s.p{p}"] = summary(
            [percentile(list(rep["timings"].values()), p) for rep in reps],
            value=percentile(jobs, p), n=len(jobs))
    return metrics


def per_layer(traced: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced run."""
    wall = traced["traced_s"]
    busy, counts = traced["busy"], traced["counts"]
    metrics = {}
    for layer, seconds in busy.items():
        metrics[f"{layer}_s"] = seconds
        metrics[f"{layer}_share"] = 100.0 * seconds / wall
    steps = counts.get("stochastic.steps", 0)
    priced = counts.get("perfmodel.priced_steps", 0)
    metrics["stochastic.steps"] = steps
    metrics["stochastic.ns_per_step"] = (
        1e9 * busy["stochastic.walk"] / steps if steps else 0.0)
    for key in ("dbt.regions", "core.navep_solves", "perfmodel.estimates"):
        metrics[key] = counts.get(key, 0)
    metrics["perfmodel.ns_per_priced_step"] = (
        1e9 * busy["perfmodel.estimate"] / priced if priced else 0.0)
    dispatch = traced["dispatch"]
    segments = dispatch["segments_seconds"]
    metrics["pool.overhead_ratio"] = dispatch.get("overhead_ratio", 0.0)
    for segment in ("serialize", "transfer", "merge"):
        metrics[f"pool.{segment}_s"] = segments[segment]
    metrics["pool.payload_bytes"] = dispatch["payload_bytes"]
    metrics["pool.effective_parallelism"] = dispatch.get(
        "effective_parallelism", 0.0)
    metrics["trace.wall_s"] = wall
    metrics["trace.coverage"] = sum(busy.values()) / wall
    metrics["trace.overhead"] = wall / traced["untraced_s"] - 1.0
    return metrics


def result_metrics(values: Dict[str, float], kind: str) -> Dict:
    """``{name: {value, unit}}`` for exactly the declared metrics."""
    metrics = declared(kind)
    missing = sorted(set(metrics) - set(values))
    if missing:
        raise RuntimeError(f"benchmark computed no {', '.join(missing)}")
    return {name: {"value": values[name], "unit": m["unit"]}
            for name, m in metrics.items()}


def print_metric(label: str, name: str, unit: str, value: float,
                 detail: str = "") -> None:
    print(f"{label:9s} {name:34s} {value:14.6f} {unit:6s} {detail}")


# -- machine facts -----------------------------------------------------------


def git_commit() -> Optional[str]:
    """HEAD's commit from ``.git`` itself (``None`` outside a clone), so
    the benchmark reads nothing outside its checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(probed: Dict) -> Dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": probed["python"], "numpy": probed["numpy"],
            "blas": probed["blas"], "blas_threads": probed["blas_threads"],
            "git_commit": git_commit()}


# -- commands ----------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float) -> Dict:
    """Timed reps of one workload until ``seconds`` is spent.

    A rep starts only if it is expected to end within the budget (at
    least one always runs).  Returns the reps, setup probes and facts.
    """
    names = names_for(workload, seed)
    facts = machine_facts(probe())  # untimed: also warms bytecode caches
    setups = [probe()["setup_s"] for _ in range(SETUP_PROBES)]
    load_before = os.getloadavg()
    reps: List[Dict] = []
    started = time.perf_counter()
    while True:
        reps.append(run_rep(workload, names))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(reps) > seconds:
            break
    setups += [probe()["setup_s"] for _ in range(SETUP_PROBES)]
    return {"names": names, "facts": facts, "setups": setups, "reps": reps,
            "load": [load_before, os.getloadavg()]}


def cmd_run(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see module docstring).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_checkout()
    expected = load_expected()
    workload = WORKLOADS[args.workload]
    names = names_for(workload, args.seed)
    label = workload.name
    print(f"workload {label}, seed {args.seed}: "
          f"{'drawn ' + ' '.join(names) if names else 'all 26 benchmarks'}")

    if args.trace:
        traced = run_trace(workload, names)
        values = per_layer(traced)
        outputs = [traced]
        attempted = len(expected_names(workload, names, expected))
        failed = 0
        units = {name: m["unit"] for name, m in declared("per_layer").items()}
        for name, value in values.items():
            print_metric(label, name, units[name], value)
        print(f"chrome trace: {traced['trace_out']}")
        metrics = result_metrics(values, "per_layer")
    else:
        run = measure(workload, args.seed, args.seconds)
        outputs = run["reps"]
        attempted = len(outputs) * len(expected_names(workload, names,
                                                      expected))
        failed = sum(len(rep["failed"]) for rep in outputs)
        summaries = end_to_end(outputs, run["setups"])
        units = {name: m["unit"] for name, m in
                 declared("end_to_end").items()}
        for name, s in summaries.items():
            print_metric(label, name, units.get(name, "s"), s["value"],
                         f"q1 {s['q1']:.6f} q3 {s['q3']:.6f} n {s['n']}")
        for rep in outputs:
            if rep["unreaped"]:
                print(f"WARNING: rep cpu_s {rep['cpu_s']:.2f} is below 90% "
                      f"of its job seconds: pool workers were not reaped")
        print(f"machine: {json.dumps(run['facts'])}")
        print(f"load average before/after: {run['load']}")
        metrics = result_metrics({k: s["value"] for k, s in
                                    summaries.items()}, "end_to_end")
    checked, matched = check_outputs(workload, names, outputs, expected)
    correct = checked > 0 and matched == checked
    print(f"outputs_ok {matched}/{checked}; failed {failed}/{attempted}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def cmd_set(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Run every workload round-robin and write one set.")
    parser.add_argument("--out", default=os.path.join(OUT, "set.json"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    check_checkout()
    expected = load_expected()
    with open(BENCHMARK_PATH) as f:
        seconds = json.load(f)["run_seconds"]
    order = list(WORKLOADS.values())
    runs: Dict[str, List[Dict]] = {w.name: [] for w in order}
    started = time.perf_counter()
    for round_index in range(SET_RUNS):
        for workload in (order if round_index % 2 == 0 else order[::-1]):
            runs[workload.name].append(
                measure(workload, args.seed, seconds))
    traces = {w.name: run_trace(w, names_for(w, args.seed)) for w in order}

    ok = True
    result = {"command": "benchmarks/perf/run.py set", "seed": args.seed,
              "run_seconds": seconds, "runs": SET_RUNS,
              "machine": runs[order[0].name][0]["facts"],
              "seconds": round(time.perf_counter() - started, 1),
              "workloads": {}}
    metrics = declared("end_to_end")
    layer_units = {name: m["unit"]
                   for name, m in declared("per_layer").items()}
    for workload in order:
        wruns, traced = runs[workload.name], traces[workload.name]
        names = wruns[0]["names"]
        reps = [rep for run in wruns for rep in run["reps"]]
        per_run = [end_to_end(run["reps"], run["setups"]) for run in wruns]
        summaries = {name: dict(summary([r[name]["value"] for r in per_run]),
                                unit=m["unit"])
                     for name, m in metrics.items()}
        tails = {name: {"value": s["value"], "n": s["n"], "unit": "s"}
                 for name, s in end_to_end(reps, []).items()
                 if name.startswith("bench_s.p") and name not in metrics}
        layers = per_layer(traced)
        checked, matched = check_outputs(workload, names, reps + [traced],
                                         expected)
        attempted = len(reps) * len(expected_names(workload, names,
                                                   expected))
        failed = sum(len(rep["failed"]) for rep in reps)
        ok = ok and matched == checked
        result["workloads"][workload.name] = {
            "names": names, "jobs": workload.jobs, "reps": len(reps),
            "config": dict(CONFIGS[workload.config]),
            "load": [run["load"] for run in wruns],
            "end_to_end": summaries, "bench_s_tail": tails,
            "per_layer": {k: {"value": v, "unit": layer_units[k]}
                          for k, v in layers.items()},
            "checks": {"outputs_checked": checked,
                       "outputs_matched": matched,
                       "outputs_ok": matched / checked,
                       "attempted": attempted, "failed": failed,
                       "failed_frac": failed / attempted,
                       "unreaped_reps": sum(r["unreaped"] for r in reps)},
            "trace": traced["trace_out"]}
        for name, s in list(summaries.items()) + list(tails.items()):
            print_metric(workload.name, name, s["unit"], s["value"],
                         f"q1 {s['q1']:.6f} q3 {s['q3']:.6f} runs {s['n']}"
                         if "q1" in s else f"n {s['n']}")
        for name, value in layers.items():
            print_metric(workload.name, name, layer_units[name], value)
        print(f"{workload.name:9s} outputs_ok {matched}/{checked}, "
              f"failed_frac {failed}/{attempted}, {len(reps)} reps")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out} in {result['seconds']} s")
    return 0 if ok else 1


def compare_sets(a: Dict, b: Dict, metrics: Dict[str, Dict]):
    """Rows ``(workload, metric, a, b, change, spread, status)``.

    ``change`` is how much worse B is than A, as a share of A's value;
    ``spread`` is the wider relative quartile spread of the two sides.
    Status is ``ok``, ``REGRESSION``, ``missing``, or ``unresolved``
    when the spread exceeds the bound and not every run of B reads
    better than every run of A.
    """
    rows = []
    for workload in WORKLOADS:
        for name, m in metrics.items():
            try:
                sa = a["workloads"][workload]["end_to_end"][name]
                sb = b["workloads"][workload]["end_to_end"][name]
            except KeyError:
                rows.append((workload, name, None, None, None, None,
                             "missing"))
                continue
            lower = m["better"] == "lower"
            change = (sb["value"] - sa["value"]) / sa["value"]
            change = change if lower else -change
            spread = max((s["q3"] - s["q1"]) / s["value"] for s in (sa, sb))
            all_better = (max(sb["values"]) < min(sa["values"]) if lower
                          else min(sb["values"]) > max(sa["values"]))
            if spread > m["bound"] and not all_better:
                status = "unresolved"
            elif change > m["bound"]:
                status = "REGRESSION"
            else:
                status = "ok"
            rows.append((workload, name, sa["value"], sb["value"], change,
                         spread, status))
    return rows


def cmd_compare(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Apply BENCHMARK.json bounds to two sets (A = base).")
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)
    with open(args.base) as f:
        a = json.load(f)
    with open(args.head) as f:
        b = json.load(f)
    metrics = declared("end_to_end")
    rows = compare_sets(a, b, metrics)
    print(f"{'workload':9s} {'metric':14s} {'base':>11s} {'head':>11s} "
          f"{'worse':>8s} {'spread':>7s} {'bound':>6s}  status")
    for workload, name, va, vb, change, spread, status in rows:
        if va is None:
            print(f"{workload:9s} {name:14s} {'-':>11s} {'-':>11s} "
                  f"{'':8s} {'':7s} {'':6s}  {status}")
            continue
        print(f"{workload:9s} {name:14s} {va:11.4f} {vb:11.4f} "
              f"{change:+8.2%} {spread:7.2%} {metrics[name]['bound']:6.0%}"
              f"  {status}")
    bad = [r for r in rows if r[-1] in ("REGRESSION", "missing")]
    unresolved = [r for r in rows if r[-1] == "unresolved"]
    print(f"{len(rows)} pairs: {len(bad)} violation(s), "
          f"{len(unresolved)} unresolved")
    return 1 if bad else 0


def cmd_pin(argv: List[str]) -> int:
    """Regenerate ``expected.json`` from serial runs over all 26."""
    argparse.ArgumentParser(
        description="Pin result digests of every config.").parse_args(argv)
    check_checkout()
    pinned = {"configs": {}}
    for config in CONFIGS:
        out, _, _ = spawn(dict(CONFIGS[config], names=None, jobs=1,
                               figures=False, mode="rep"))
        pinned["configs"][config] = {"config": CONFIGS[config],
                                     "digests": dict(sorted(
                                         out["digests"].items()))}
        print(f"{config}: {len(out['digests'])} digests")
    with open(EXPECTED_PATH, "w") as f:
        json.dump(pinned, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(EXPECTED_PATH, ROOT)}")
    return 0


COMMANDS = {"set": cmd_set, "compare": cmd_compare, "pin": cmd_pin}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = COMMANDS.get(argv[0]) if argv else None
    try:
        if command is not None:
            return command(argv[1:])
        return cmd_run(argv)
    except (CheckoutError, ChildFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CheckoutError) else 1


def exit_on_sigterm(signum, frame):
    """Turn a SIGTERM into ``SystemExit``, so the running child's process
    group is killed and reaped on the way out."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    sys.exit(main())
