#!/usr/bin/env python3
"""Threshold sweep over selected synthetic SPEC2000 stand-ins.

Replays the paper's core experiment for a handful of benchmarks: record
one reference run, derive INIP(T) for the whole retranslation-threshold
sweep, compare each against AVEP, and use the training-input profile as
the reference point.  Prints, per benchmark, the Figure 8/10-style rows —
and shows the paper's two headline phenomena:

* for stable benchmarks a *tiny* initial profile already matches the
  training input's accuracy at a fraction of the profiling cost;
* for phase-changing benchmarks (mcf) no initial profile is
  representative.

Run: ``python examples/threshold_sweep.py [bench ...]``
(defaults to gzip, mcf, perlbmk and swim; pass other suite names to
explore — run lengths are scaled down for an interactive feel.)
"""

import sys

from repro.core import run_threshold_sweep
from repro.dbt import DBTConfig
from repro.workloads import get_benchmark, nominal_label

THRESHOLDS = [10, 50, 100, 500, 1000, 4000, 16000]
SCALE = 0.25  # quarter-length runs: interactive but representative


def sweep(name: str) -> None:
    bench = get_benchmark(name)
    bench.run_steps = int(bench.run_steps * SCALE)
    bench.train_steps = int(bench.train_steps * SCALE)

    print(f"=== {name} ({bench.suite.upper()}, "
          f"{bench.workload.num_blocks} blocks, "
          f"{bench.run_steps:,} block executions) ===")
    ref_trace = bench.trace("ref")
    train_counts = bench.counts("train")  # INIP(train) needs no steps
    study = run_threshold_sweep(name, bench.cfg, ref_trace, train_counts,
                                THRESHOLDS, base_config=DBTConfig(),
                                loops=bench.loop_forest())

    train = study.train_comparison
    print(f"training-input reference: Sd.BP={train.sd_bp:.3f} "
          f"mismatch={train.bp_mismatch:.3f} "
          f"(profiling ops: {study.train_ops:,})")
    header = (f"{'T':>6} {'Sd.BP':>7} {'mis':>6} {'Sd.CP':>7} "
              f"{'Sd.LP':>7} {'lp-mis':>7} {'ops/train':>10}")
    print(header)
    for threshold in study.thresholds:
        outcome = study.outcomes[threshold]
        c = outcome.comparison

        def fmt(value, width=7):
            return "   -   " if value is None else f"{value:{width}.3f}"

        ops_ratio = outcome.profiling_ops / study.train_ops
        marker = " <- beats train" if (c.sd_bp is not None and
                                       train.sd_bp is not None and
                                       c.sd_bp <= train.sd_bp) else ""
        print(f"{nominal_label(threshold):>6} {fmt(c.sd_bp)} "
              f"{fmt(c.bp_mismatch, 6)} {fmt(c.sd_cp)} {fmt(c.sd_lp)} "
              f"{fmt(c.lp_mismatch)} {ops_ratio:10.4f}{marker}")
    print()


def main() -> None:
    names = sys.argv[1:] or ["gzip", "mcf", "perlbmk", "swim"]
    for name in names:
        sweep(name)
    print("Reading the rows: Sd.BP below the training-input reference "
          "means the two-phase translator's initial profile predicts the "
          "average behaviour at least as well as traditional "
          "profile-guided optimisation - at the ops/train fraction of "
          "the profiling cost (the paper's headline result).")


if __name__ == "__main__":
    main()
