"""repro — a reproduction of "The Accuracy of Initial Prediction in
Two-Phase Dynamic Binary Translators" (Wu, Breternitz, Quek, Etzion,
Fang — CGO 2004) on a fully simulated DBT stack.

Layer map (bottom to top):

* :mod:`repro.ir` — the VIR guest ISA and program representation.
* :mod:`repro.cfg` — CFG analyses (dominators, loops, Markov frequencies).
* :mod:`repro.interp` — the instruction interpreter (profiling-phase
  engine) with its block/branch event protocol.
* :mod:`repro.stochastic` — the scalable block-level execution engine and
  time-varying branch behaviour models.
* :mod:`repro.dbt` — the two-phase translator: counters, candidate pool,
  region formation, live and trace-replay pipelines.
* :mod:`repro.profiles` — INIP/AVEP profile snapshots and their file
  format.
* :mod:`repro.core` — the paper's methodology: NAVEP normalisation,
  Sd.BP/Sd.CP/Sd.LP, range matching, threshold-sweep studies.
* :mod:`repro.workloads` — the 26 synthetic SPEC2000 stand-ins.
* :mod:`repro.perfmodel` — the §4.4 cost model.
* :mod:`repro.phases` — phase-awareness extensions from the paper's
  future-work section.
* :mod:`repro.obs` — the observability substrate: metrics registry,
  span timers (Chrome-trace export), structured logging, run manifests.
* :mod:`repro.harness` — full-suite runs and figure regeneration.

Quickstart::

    from repro.workloads import get_benchmark, SIM_THRESHOLDS
    from repro.core import run_threshold_sweep

    bench = get_benchmark("gzip")
    study = run_threshold_sweep(
        bench.name, bench.cfg, bench.trace("ref"), bench.counts("train"),
        thresholds=SIM_THRESHOLDS[:5])
    print([study.outcomes[t].comparison.sd_bp for t in study.thresholds])
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
