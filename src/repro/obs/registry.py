"""The metrics registry: counters, gauges and percentile histograms.

One process-global :class:`MetricsRegistry` (reachable through
:func:`get_registry`) backs the convenience functions :func:`inc`,
:func:`set_gauge` and :func:`observe` that the instrumentation sites
call.  Those functions check the global enabled flag first, so with
:func:`disable` in effect every call is a single attribute test — the
no-op fast path the benchmarks rely on.

Instruments are identified by flat dotted names (``"replay.
blocks_translated"``, ``"cache.miss"``); the registry creates them on
first use.  :func:`metrics_snapshot` distils everything into a plain
JSON-serialisable dict, and :func:`write_metrics` persists it.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """A value distribution summarised by count/mean/percentiles."""

    __slots__ = ("name", "_values")

    def __init__(self, name: str):
        self.name = name
        self._values: List[float] = []

    def observe(self, value: Number) -> None:
        """Record one observation."""
        self._values.append(float(value))

    @property
    def count(self) -> int:
        """Number of observations so far."""
        return len(self._values)

    def values(self) -> List[float]:
        """The raw observations, insertion order (a copy)."""
        return list(self._values)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile ``p`` in [0, 100]."""
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        values = sorted(self._values)
        if len(values) == 1:
            return values[0]
        index = (p / 100.0) * (len(values) - 1)
        lo = int(index)
        frac = index - lo
        if lo + 1 >= len(values):
            return values[-1]
        a, b = values[lo], values[lo + 1]
        # numpy's lerp: a*(1-frac) + b*frac would underflow to 0.0 on
        # subnormals (p50 < min for [5e-324, 5e-324]); the difference
        # form, clamped to [a, b], cannot.
        lerp = a + (b - a) * frac if frac < 0.5 else b - (b - a) * (1 - frac)
        return min(max(lerp, a), b)

    def summary(self) -> Dict[str, float]:
        """count/sum/min/max/mean plus the p50/p90/p99 percentiles."""
        if not self._values:
            return {"count": 0}
        total = sum(self._values)
        return {
            "count": len(self._values),
            "sum": total,
            "min": min(self._values),
            "max": max(self._values),
            "mean": total / len(self._values),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Creates-on-first-use store of named instruments (thread-safe)."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        try:
            return self._gauges[name]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(name, Histogram(name))

    def snapshot(self) -> Dict[str, Dict]:
        """Everything recorded so far, as a JSON-serialisable dict."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.summary()
                           for n, h in sorted(self._histograms.items())},
        }

    def export_state(self) -> Dict[str, Dict]:
        """Lossless dump for cross-process merging.

        Unlike :meth:`snapshot`, histograms keep their raw observations,
        so a parent registry can merge a worker's state and still compute
        exact percentiles over the union.
        """
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: list(h._values)
                           for n, h in sorted(self._histograms.items())},
        }

    def merge_state(self, state: Dict[str, Dict]) -> None:
        """Fold an :meth:`export_state` dump into this registry.

        Counters add, gauges last-write-win, histogram observations
        append — the result is indistinguishable from the worker having
        recorded into this registry directly.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in state.get("gauges", {}).items():
            if value is not None:
                self.gauge(name).set(value)
        for name, values in state.get("histograms", {}).items():
            histogram = self.histogram(name)
            for value in values:
                histogram.observe(value)

    def reset(self) -> None:
        """Drop every instrument (tests and fresh runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-global registry the module-level helpers write to.
_DEFAULT = MetricsRegistry()

_ENABLED = True


def get_registry() -> MetricsRegistry:
    """The process-global registry."""
    return _DEFAULT


def enable() -> None:
    """Turn metric and span collection on (the default)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn collection off: every helper becomes a no-op."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """Whether observability collection is currently on."""
    return _ENABLED


def inc(name: str, amount: Number = 1) -> None:
    """Increment the global counter ``name`` (no-op when disabled)."""
    if _ENABLED:
        _DEFAULT.counter(name).inc(amount)


def set_gauge(name: str, value: Number) -> None:
    """Set the global gauge ``name`` (no-op when disabled)."""
    if _ENABLED:
        _DEFAULT.gauge(name).set(value)


def observe(name: str, value: Number) -> None:
    """Record into the global histogram ``name`` (no-op when disabled)."""
    if _ENABLED:
        _DEFAULT.histogram(name).observe(value)


def counter_value(name: str) -> Number:
    """Current value of counter ``name`` (0 if never incremented)."""
    return _DEFAULT.counter(name).value


def metrics_snapshot() -> Dict[str, Dict]:
    """Snapshot of the global registry."""
    return _DEFAULT.snapshot()


def export_state() -> Dict[str, Dict]:
    """Lossless dump of the global registry (for worker → parent merge)."""
    return _DEFAULT.export_state()


def merge_state(state: Dict[str, Dict]) -> None:
    """Fold a worker's :func:`export_state` dump into the global registry."""
    _DEFAULT.merge_state(state)


def reset_metrics() -> None:
    """Reset the global registry."""
    _DEFAULT.reset()


def write_metrics(path: str) -> None:
    """Write the global snapshot as JSON to ``path`` (atomically)."""
    from ..ioutil import atomic_write_text
    atomic_write_text(path, json.dumps(metrics_snapshot(), indent=2) + "\n")
