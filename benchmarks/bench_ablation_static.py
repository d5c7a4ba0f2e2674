"""Ablation: the zero-profiling static baseline (Wu–Larus [20]).

Places the initial profile on the full prediction spectrum the study
implies: static heuristics (no profiling at all) vs the initial profile
at the paper's INT sweet spot (nominal 2k) vs the training-input profile.
The paper's headline — a tiny initial profile matches training-input PGO
— gains force when both beat the static estimator on branchy code while
all three tie on regular FP loops.
"""

import pytest

from repro.core import compare_inip_to_avep
from repro.dbt import DBTConfig, ReplayDBT
from repro.harness import Table
from repro.profiles import avep_from_trace
from repro.staticpred import compare_static_to_avep
from repro.workloads import get_benchmark

from conftest import emit_table

BENCHES = ["gzip", "crafty", "perlbmk", "swim", "mgrid"]
THRESHOLD = 200  # nominal 2k


def _measure(name: str):
    bench = get_benchmark(name)
    bench.run_steps = bench.run_steps // 4
    bench.train_steps = max(bench.run_steps // 3, 10_000)
    loops = bench.loop_forest()
    ref = bench.trace("ref")
    avep = avep_from_trace(ref)

    static = compare_static_to_avep(bench.cfg, avep, loops=loops)
    inip = ReplayDBT(ref, bench.cfg, DBTConfig(threshold=THRESHOLD),
                     loops=loops).snapshot()
    initial = compare_inip_to_avep(bench.cfg, inip, avep)
    from repro.core import compare_flat_profiles
    train = compare_flat_profiles(
        bench.cfg, avep_from_trace(bench.counts("train"),
                                   input_name="train"), avep)
    return {
        "static": static.sd_bp, "inip": initial.sd_bp,
        "train": train.sd_bp,
        "static_mis": static.bp_mismatch, "inip_mis": initial.bp_mismatch,
    }


def test_static_baseline_ablation(benchmark):
    rows = {name: _measure(name) for name in BENCHES}

    table = Table(
        title="Ablation: static heuristics vs INIP(2k) vs training "
              "profile (Sd.BP)",
        columns=["benchmark", "static", "INIP(2k)", "train",
                 "static mismatch", "INIP mismatch"])
    for name, r in rows.items():
        table.add_row(name, r["static"], r["inip"], r["train"],
                      r["static_mis"], r["inip_mis"])
    emit_table(table, "ablation_static")

    benchmark(_measure, "swim")

    # Branchy INT code: any profile (initial or training) beats static
    # heuristics decisively.
    for name in ("gzip", "crafty", "perlbmk"):
        assert rows[name]["static"] > rows[name]["inip"]
    # Regular FP loops: static heuristics are already close — the niche
    # where profiling buys little.
    assert rows["swim"]["static"] < 0.15
    assert rows["mgrid"]["static"] < 0.15
