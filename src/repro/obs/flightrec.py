"""The flight recorder: a bounded ring of recent events per process.

Crashed, hung or quarantined study jobs used to die silently — the
worker's metrics and spans travel only on *success*, so an exit-3 run
shipped no diagnosis at all.  The flight recorder fixes that: every
process keeps a small ring buffer (:data:`DEFAULT_CAPACITY` entries) of
its most recent observability events — span completions and structured
log records — and the failure paths of the resilient dispatcher dump
that ring to disk next to the failure it explains.

The ring is deliberately tiny and allocation-cheap (a ``deque`` with
``maxlen``): it runs always-on wherever the metrics registry is enabled,
costs one dict append per span/log event (both already aggregate outside
hot loops), and never grows.  Workers ship their ring back inside
:class:`~repro.harness.pool.WorkerJobError` when a job raises; the
parent folds it into the quarantine dump
(:func:`~repro.harness.runner.run_full_study` writes one JSON file per
quarantined benchmark).
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from . import registry as _registry

#: Ring capacity unless the caller sizes a recorder itself.
DEFAULT_CAPACITY = 256

#: Format version stamped into every dump file.
DUMP_VERSION = 1

#: Event keys owned by the ring itself; payload fields must not clobber
#: them (see :meth:`FlightRecorder.record`).
_BASE_KEYS = frozenset({"seq", "ts", "pid", "kind", "name"})


class FlightRecorder:
    """A bounded ring of recent observability events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self._seq = 0

    def record(self, kind: str, name: str, /, **fields: Any) -> None:
        """Append one event; the oldest event falls off a full ring.

        ``kind``/``name`` are positional-only so payload fields may use
        those words too; a payload key that collides with a base key is
        kept under a ``field_`` prefix rather than dropped.
        """
        self._seq += 1
        event = {f"field_{k}" if k in _BASE_KEYS else k: v
                 for k, v in fields.items()}
        event.update({"seq": self._seq,
                      "ts": round(time.perf_counter(), 6),
                      "pid": os.getpid(), "kind": kind, "name": name})
        self._ring.append(event)

    def export(self) -> List[Dict[str, Any]]:
        """The buffered events, oldest first (a copy)."""
        return list(self._ring)

    def clear(self) -> None:
        """Drop every buffered event (sequence numbers keep counting)."""
        self._ring.clear()

    def restore(self, events: List[Dict[str, Any]]) -> None:
        """Replace the ring contents (worker-grade state isolation)."""
        self._ring.clear()
        self._ring.extend(events[-self.capacity:])

    def __len__(self) -> int:
        return len(self._ring)


#: The process-global recorder the hooks below write into.
_DEFAULT = FlightRecorder()


def record(kind: str, name: str, /, **fields: Any) -> None:
    """Record into the global ring (no-op when observability is off)."""
    if _registry.enabled():
        _DEFAULT.record(kind, name, **fields)


def export() -> List[Dict[str, Any]]:
    """The global ring's events, oldest first."""
    return _DEFAULT.export()


def clear() -> None:
    """Drop the global ring's events."""
    _DEFAULT.clear()


def restore(events: List[Dict[str, Any]]) -> None:
    """Replace the global ring's events (state isolation around retries)."""
    _DEFAULT.restore(events)


def resolve_flight_dir(flight_dir: Optional[str] = None,
                       cache_dir: Optional[str] = None) -> Optional[str]:
    """Where failure dumps should go, if anywhere.

    Explicit ``flight_dir`` (the resolved spec's, which ``REPRO_FLIGHT_DIR``
    may have set) wins; otherwise ``<cache_dir>/flight`` when the run has
    a cache directory; otherwise ``None`` — no dumps (a pure-library
    caller without a cache never gets surprise files in its working
    directory).
    """
    if flight_dir is not None:
        return flight_dir
    if cache_dir is not None:
        return os.path.join(cache_dir, "flight")
    return None


def dump_path(flight_dir: str, bench: str, reason: str) -> str:
    """The dump filename for one quarantined benchmark."""
    return os.path.join(flight_dir, f"flight-{bench}-{reason}.json")


def write_dump(flight_dir: str, bench: str, reason: str,
               context: Dict[str, Any],
               worker_events: Optional[List[Dict[str, Any]]] = None) -> str:
    """Write one failure dump (atomically) and return its path.

    The dump carries the failure context (reason, attempts, error), the
    worker's shipped ring when the job died by raising (``None`` for
    crashes and timeouts — those workers never got to ship anything),
    the parent's own ring, and a metrics snapshot, so a quarantined run
    leaves a self-contained diagnosis artifact.
    """
    import json

    from ..ioutil import atomic_write_text

    payload = {
        "dump_version": DUMP_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "benchmark": bench,
        "reason": reason,
        "context": context,
        "worker_flight": worker_events,
        "parent_flight": export(),
        "metrics": _registry.metrics_snapshot(),
    }
    os.makedirs(flight_dir, exist_ok=True)
    path = dump_path(flight_dir, bench, reason)
    atomic_write_text(path, json.dumps(payload, indent=2,
                                       default=str) + "\n")
    _registry.inc("flight.dumps")
    return path
