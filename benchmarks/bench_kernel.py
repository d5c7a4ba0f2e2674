"""Micro-benchmark: scalar walker vs vectorized event kernel.

Times trace recording for every (benchmark, input) cell of the suite
with the scalar :class:`CFGWalker` (the reference the vector kernel is
tested against) and the vector path, asserts the event streams are
byte-identical, and writes ``BENCH_kernel.json``::

    PYTHONPATH=src python benchmarks/bench_kernel.py --out BENCH_kernel.json

Measurement protocol: the machine this runs on is noisy, so cells are
timed **interleaved** (scalar then vector inside the same repetition,
repeated ``--reps`` times) and each cell reports its **best-of-N
minimum** for both walkers.  Solo back-to-back sweeps systematically
flatter whichever side runs second; interleaved minima are the honest
comparison.

The headline ``walker`` section times the raw event kernels with no
per-block index on either side (``CFGWalker.run`` vs ``VecWalker.run``).
The secondary ``replay_ready`` section times the full hand-off to the
replay DBTs — trace plus per-block event index, built lazily by
``events()`` on both sides (``CFGWalker.run().events()`` vs the study's
``record_trace(...).events()``) — the denominator that matters for the
ref trace of an end-to-end study run.

Run as a script (pytest collects this file but finds no tests in it).
"""

import argparse
import json
import sys
import time


def _cells(scale):
    from repro.workloads.spec import all_benchmarks
    for benchmark in all_benchmarks():
        if scale != 1.0:
            benchmark = benchmark.scaled(scale)
        yield f"{benchmark.name}:ref", benchmark, "ref"
        yield f"{benchmark.name}:train", benchmark, "train"


def _cell_params(benchmark, input_name):
    ref, train = benchmark.behaviors()
    if input_name == "ref":
        return ref, benchmark.run_steps, benchmark.seed_ref
    return train, benchmark.train_steps, benchmark.seed_train


def bench_kernels(reps, scale, with_index=False):
    """Interleaved best-of-N cell times; asserts stream identity once.

    ``with_index=False`` races the raw kernels (no per-block event index
    on either side); ``with_index=True`` races the replay-ready hand-off
    (trace *plus* index; the vector side is the study's
    :func:`record_trace`).
    """
    import numpy as np

    from repro.stochastic import CFGWalker, VecWalker, record_trace

    cells = list(_cells(scale))
    best = {label: [float("inf"), float("inf")] for label, _, _ in cells}
    mismatches = []
    for rep in range(reps):
        for label, benchmark, input_name in cells:
            behavior, steps, seed = _cell_params(benchmark, input_name)
            cfg = benchmark.cfg
            if with_index:
                t0 = time.perf_counter()
                scalar = CFGWalker(cfg, behavior, seed=seed).run(steps)
                scalar.events()
                t1 = time.perf_counter()
                vector = record_trace(cfg, behavior, steps, seed=seed)
                vector.events()
                t2 = time.perf_counter()
            else:
                t0 = time.perf_counter()
                scalar = CFGWalker(cfg, behavior, seed=seed).run(steps)
                t1 = time.perf_counter()
                vector = VecWalker(cfg, behavior, seed=seed).run(steps)
                t2 = time.perf_counter()
            cell = best[label]
            cell[0] = min(cell[0], t1 - t0)
            cell[1] = min(cell[1], t2 - t1)
            if rep == 0 and not (
                    np.array_equal(scalar.blocks, vector.blocks)
                    and np.array_equal(scalar.taken, vector.taken)):
                mismatches.append(label)
    return best, mismatches


def _section(best):
    total_scalar = sum(cell[0] for cell in best.values())
    total_vector = sum(cell[1] for cell in best.values())
    return {
        "cells": {label: {"scalar_s": round(cell[0], 4),
                          "vector_s": round(cell[1], 4),
                          "speedup": round(cell[0] / cell[1], 2)}
                  for label, cell in sorted(best.items())},
        "total_scalar_s": round(total_scalar, 3),
        "total_vector_s": round(total_vector, 3),
        "speedup": round(total_scalar / total_vector, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_kernel.json",
                        help="output JSON path")
    parser.add_argument("--reps", type=int, default=5,
                        help="interleaved repetitions per cell "
                             "(best-of-N minima are reported)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="steps_scale applied to every benchmark")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail (exit 1) if the aggregate walker "
                             "speedup lands below this")
    args = parser.parse_args(argv)

    print(f"kernel bench: full suite, reps={args.reps}, "
          f"scale={args.scale} (interleaved best-of-N minima)")
    walker_best, mismatches = bench_kernels(args.reps, args.scale)
    replay_best, _ = bench_kernels(1, args.scale, with_index=True)

    walker = _section(walker_best)
    replay_ready = _section(replay_best)
    payload = {
        "bench": "kernel",
        "protocol": f"interleaved best-of-{args.reps} minima per cell",
        "scale": args.scale,
        "walker": walker,
        "replay_ready": replay_ready,
        "identical_streams": not mismatches,
        "mismatched_cells": mismatches,
    }
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)

    for label, cell in sorted(walker["cells"].items()):
        print(f"  {label:24s} scalar {cell['scalar_s']*1e3:8.1f}ms "
              f"vector {cell['vector_s']*1e3:8.1f}ms "
              f"{cell['speedup']:5.2f}x")
    print(f"walker path: scalar {walker['total_scalar_s']:.2f}s "
          f"vector {walker['total_vector_s']:.2f}s "
          f"-> {walker['speedup']:.2f}x")
    print(f"replay-ready (trace+index): {replay_ready['speedup']:.2f}x")
    print(f"wrote {args.out}")

    if mismatches:
        print(f"FAIL: event streams differ for {mismatches}",
              file=sys.stderr)
        return 1
    if walker["speedup"] < args.min_speedup:
        print(f"FAIL: walker speedup {walker['speedup']:.2f}x below "
              f"required {args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
