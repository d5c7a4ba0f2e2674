"""Observability substrate: metrics, spans, structured logging, manifests.

Every layer of the pipeline reports into this package:

* :mod:`repro.obs.registry` — process-global metrics registry
  (counters, gauges, histograms with percentile summaries) behind a
  no-op fast path when observability is disabled.
* :mod:`repro.obs.spans` — nestable ``with span("name", **attrs)``
  timers, exported as Chrome-trace-compatible JSON (load the file in
  ``chrome://tracing`` or https://ui.perfetto.dev).
* :mod:`repro.obs.log` — a structured logger with one
  :func:`configure` entry point (text or JSON lines).
* :mod:`repro.obs.manifest` — run manifests: config fingerprint,
  per-benchmark timings and a metric snapshot, persisted alongside
  :class:`~repro.harness.results.StudyResults` and rendered by
  ``repro-study --stats``.

On top of the substrate sits the profiling & attribution layer:

* :mod:`repro.obs.profile` — the phase profiler: exclusive/inclusive
  wall-time per pipeline phase from the span tree.
* :mod:`repro.obs.dispatch` — per-job dispatch timelines (serialize /
  queue / spawn / execute / transfer / merge) that decompose the
  parallel harness's overhead into named costs.
* :mod:`repro.obs.flightrec` — a bounded ring of recent spans/log
  events per process, dumped on failure paths as a diagnosis artifact.
* :mod:`repro.obs.catalog` — the documented instrument catalog backing
  the generated table in ``docs/observability.md``.
* ``python -m repro.obs report`` (:mod:`repro.obs.report`) — aggregates
  manifests across cache shards, renders hotspot and dispatch tables,
  diffs runs against baselines, and exports Prometheus textfiles.

Instrumentation sites aggregate outside hot loops (a handful of
increments per DBT run, never per simulated step), so the substrate
costs nothing measurable whether enabled or not; :func:`disable`
additionally short-circuits every entry point to a no-op.
"""

from .dispatch import JobTimeline, summarize
from .flightrec import FlightRecorder, resolve_flight_dir, write_dump
from .log import StructuredLogger, configure, get_logger
from .manifest import build_manifest, render_manifest
from .profile import PhaseProfile
from .registry import (Counter, Gauge, Histogram, MetricsRegistry,
                       counter_value, disable, enable, enabled,
                       export_state, get_registry, inc, merge_state,
                       metrics_snapshot, observe, reset_metrics, set_gauge,
                       write_metrics)
from .spans import (clear_trace, extend_trace, now_ts, span, trace_events,
                    write_trace)

__all__ = [
    "Counter", "FlightRecorder", "Gauge", "Histogram", "JobTimeline",
    "MetricsRegistry", "PhaseProfile", "StructuredLogger",
    "build_manifest", "clear_trace", "configure", "counter_value",
    "disable", "enable", "enabled", "export_state",
    "extend_trace", "get_logger", "get_registry", "inc",
    "merge_state", "metrics_snapshot", "now_ts", "observe",
    "render_manifest",
    "reset_metrics", "resolve_flight_dir",
    "set_gauge", "span", "summarize",
    "trace_events", "write_dump", "write_metrics", "write_trace",
]
