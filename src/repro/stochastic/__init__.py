"""Scalable block-level stochastic execution.

* :mod:`repro.stochastic.behavior` — time-varying branch models (phases,
  warm-up, drift) and the trip-count ⇄ loop-back-probability relation.
* :mod:`repro.stochastic.trace` — numpy-backed execution traces with a
  lazily built per-block event index, and :class:`RunCounts`, a run's
  whole-run counters without its steps.
* :mod:`repro.stochastic.walker` — the scalar CFG walker (the reference
  the vector walker is tested against), plus :class:`TraceRecorder`,
  which records an interpreter run as a trace.
* :mod:`repro.stochastic.vecwalker` — the numpy-vectorized event kernel,
  byte-identical to the scalar walker, and the instrumented
  :func:`~repro.stochastic.vecwalker.record_trace` and count-only
  :func:`~repro.stochastic.vecwalker.record_counts` entry points.
"""

from .behavior import (BranchBehavior, Phase, ProgramBehavior, drifting,
                       loopback_for_trip_count, phased, steady, warmup)
from .trace import (NO_BRANCH, BlockEvents, EventIndex, ExecutionTrace,
                    RunCounts, TraceError)
from .vecwalker import (VecWalker, numpy_uniform_stream, record_counts,
                        record_trace)
from .walker import CFGWalker, TraceRecorder, walk

__all__ = [
    "NO_BRANCH", "BlockEvents", "BranchBehavior", "CFGWalker",
    "EventIndex", "ExecutionTrace", "Phase", "ProgramBehavior", "RunCounts",
    "TraceError",
    "TraceRecorder", "VecWalker", "drifting", "loopback_for_trip_count", "numpy_uniform_stream",
    "phased", "record_counts", "record_trace", "steady", "walk", "warmup",
]
