"""Dispatch telemetry: a per-job timeline of where parallel time goes.

A parallel study's wall time is its benchmarks' execute time plus the
cost of shipping them to workers and back.  This module gives the
dispatcher the vocabulary to say where that cost goes: every job
carries a :class:`JobTimeline` that splits its life into named
segments —

* ``serialize`` — pickling the job payload in the parent (with the
  payload's byte size, so pickling *rate* is computable),
* ``queue`` — submit in the parent until the worker actually starts
  (this includes pool spin-up and worker import cost for the first job
  a fresh worker runs; ``spawn`` isolates that part),
* ``spawn`` — the slice of queue time spent before the worker process
  finished initialising (zero for a worker's later jobs),
* ``execute`` — the worker running the study benchmark,
* ``transfer`` — worker done until the parent future resolves
  (result pickling + pipe transfer + parent wake-up),
* ``merge`` — the parent folding the worker's metrics/spans back in.

Timestamps on both sides come from ``time.perf_counter()``, which is
CLOCK_MONOTONIC on Linux, so parent and forked-worker clocks share a
timebase and cross-process differences are meaningful.

:func:`summarize` aggregates the records into the manifest's
``dispatch`` section; :func:`render` draws the human table behind
``repro-study --stats`` and ``python -m repro.obs report``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Sequence

#: Segment names in pipeline order (the rendering order everywhere).
SEGMENTS = ("serialize", "queue", "spawn", "execute", "transfer", "merge")


@dataclass
class JobTimeline:
    """The measured life of one dispatched job attempt."""

    bench: str
    mode: str = "pool"            # "pool" | "inline" | "fallback"
    attempt: int = 1
    backend: str = "process"      # pool-backend name that ran the attempt
    worker_pid: Optional[int] = None
    payload_bytes: int = 0
    serialize_seconds: float = 0.0
    queue_seconds: float = 0.0
    spawn_seconds: float = 0.0
    execute_seconds: float = 0.0
    transfer_seconds: float = 0.0
    merge_seconds: float = 0.0
    outcome: str = "ok"           # "ok" | "error" | "timeout" | "crash"
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Sum of the measured segments (job overhead + work)."""
        return (self.serialize_seconds + self.queue_seconds +
                self.execute_seconds + self.transfer_seconds +
                self.merge_seconds)

    @property
    def overhead_seconds(self) -> float:
        """Everything that is not the benchmark itself."""
        return self.total_seconds - self.execute_seconds

    def segment(self, name: str) -> float:
        """One segment's seconds by :data:`SEGMENTS` name."""
        return getattr(self, f"{name}_seconds")

    def to_dict(self) -> Dict[str, Any]:
        """JSON form (persisted in the manifest's dispatch records)."""
        data = asdict(self)
        if not data["extra"]:
            del data["extra"]
        data["total_seconds"] = round(self.total_seconds, 6)
        for key, value in list(data.items()):
            if isinstance(value, float):
                data[key] = round(value, 6)
        return data


def summarize(records: Sequence[JobTimeline],
              jobs: int = 1,
              wall_seconds: Optional[float] = None,
              order: Sequence[str] = ()) -> Dict[str, Any]:
    """Aggregate job timelines into the manifest's ``dispatch`` section.

    The summary answers the speedup question directly: total execute
    seconds vs. wall seconds gives the achievable parallelism, and the
    per-segment totals name what ate the difference.  ``order`` is the
    benchmarks' submission order.
    """
    totals = {name: 0.0 for name in SEGMENTS}
    payload_bytes = 0
    outcomes: Dict[str, int] = {}
    backends: Dict[str, int] = {}
    for record in records:
        for name in SEGMENTS:
            totals[name] += record.segment(name)
        payload_bytes += record.payload_bytes
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
        backends[record.backend] = backends.get(record.backend, 0) + 1

    execute = totals["execute"]
    overhead = sum(totals.values()) - execute
    summary: Dict[str, Any] = {
        "jobs": jobs,
        "records": len(records),
        "order": list(order),
        "payload_bytes": payload_bytes,
        "outcomes": outcomes,
        "backends": backends,
        "segments_seconds": {name: round(totals[name], 6)
                             for name in SEGMENTS},
        "execute_seconds": round(execute, 6),
        "overhead_seconds": round(overhead, 6),
    }
    if execute > 0:
        summary["overhead_ratio"] = round(overhead / execute, 4)
    if wall_seconds is not None:
        summary["wall_seconds"] = round(wall_seconds, 6)
        if wall_seconds > 0:
            # >1 means workers overlapped; <=1 means dispatch serialised.
            summary["effective_parallelism"] = round(
                execute / wall_seconds, 4)
    summary["records_detail"] = [record.to_dict() for record in records]
    return summary


def render(summary: Optional[Dict[str, Any]]) -> str:
    """Human-readable dispatch breakdown from :func:`summarize` output."""
    if not summary:
        return "dispatch breakdown: none recorded"
    lines = [f"dispatch breakdown: {summary.get('records', 0)} job "
             f"attempt(s), jobs={summary.get('jobs', 1)}"]
    backends = summary.get("backends") or {}
    if backends:
        detail = ", ".join(f"{name} x{count}"
                           for name, count in sorted(backends.items()))
        lines.append(f"  backend(s): {detail}")
    order = summary.get("order") or []
    if order:
        lines.append(f"  order: {' '.join(order)}")
    segments = summary.get("segments_seconds") or {}
    total = sum(segments.values()) or 1.0
    lines.append(f"  {'segment':10s} {'seconds':>10s} {'share':>7s}")
    for name in SEGMENTS:
        seconds = segments.get(name, 0.0)
        lines.append(f"  {name:10s} {seconds:10.3f} "
                     f"{seconds / total * 100:6.1f}%")
    if summary.get("wall_seconds") is not None:
        lines.append(f"  wall {summary['wall_seconds']:.3f}s, effective "
                     f"parallelism "
                     f"{summary.get('effective_parallelism', 0.0):.2f}x, "
                     f"overhead/execute "
                     f"{summary.get('overhead_ratio', 0.0):.3f}")
    records = summary.get("records_detail") or []
    if records:
        lines.append(f"  {'bench':12s} {'mode':9s} {'pid':>7s} "
                     f"{'bytes':>9s} " +
                     " ".join(f"{name[:5]:>8s}" for name in SEGMENTS))
        for record in records:
            pid = record.get("worker_pid")
            lines.append(
                f"  {record['bench']:12s} {record.get('mode', '?'):9s} "
                f"{pid if pid is not None else '-':>7} "
                f"{record.get('payload_bytes', 0):9d} " +
                " ".join(f"{record.get(f'{name}_seconds', 0.0):8.3f}"
                         for name in SEGMENTS))
    return "\n".join(lines)
