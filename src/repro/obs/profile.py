"""The phase profiler: span trees rolled into a wall-time attribution.

The span buffer records *what ran*; this module answers *where the time
went*.  :class:`PhaseProfile` takes Chrome-trace span events (the
parent's plus every merged worker lane), computes each span's
**exclusive** time (its duration minus its direct children's), and rolls
those self-times up into named pipeline phases — walker, replay,
region formation, NAVEP solve, perf model, cache I/O, dispatch — so a
study run can attribute its wall time to named costs instead of guesses.

Within one lane (a ``(pid, tid)`` pair) spans nest properly, so the sum
of exclusive times equals the sum of the lane's root spans exactly:
attribution is complete by construction, and whatever is *not* covered
by a named phase shows up honestly as ``harness``/``other`` instead of
silently vanishing.  The acceptance gate
(``benchmarks/bench_profile.py``) requires named phases to cover >= 95%
of study wall time.

**Profiling mode** (``--profile`` / ``$REPRO_PROFILE``) additionally
arms fine-grained span sites that are too hot to record unconditionally
— per-event region formation, batch assembly — via the
deterministically *sampled* :func:`sampled_span` (every Nth call per
site records; no randomness, so two identical runs record identical
spans).  Profiling only ever adds timing spans: study figures are
byte-identical with it on or off.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Tuple

from . import registry as _registry
from .spans import NULL_SPAN, span

#: Environment variable overriding the sampling stride of sampled_span.
SAMPLE_ENV = "REPRO_PROFILE_SAMPLE"

#: Default stride: record every call.  Raise to thin out pathological
#: sites (the stride is deterministic, never random).
DEFAULT_SAMPLE_EVERY = 1

_PROFILING = False

#: Per-site call counters behind :func:`sampled_span`.
_SAMPLE_COUNTS: Dict[str, int] = {}


def set_profiling(on: bool) -> None:
    """Arm or disarm the fine-grained profiling span sites."""
    global _PROFILING
    _PROFILING = bool(on)


def profiling_enabled() -> bool:
    """Whether profiling mode is armed (and observability enabled)."""
    return _PROFILING and _registry.enabled()


def sample_every() -> int:
    """The deterministic sampling stride of :func:`sampled_span`."""
    env = os.environ.get(SAMPLE_ENV)
    if not env:
        return DEFAULT_SAMPLE_EVERY
    try:
        value = int(env)
    except ValueError:
        raise ValueError(
            f"{SAMPLE_ENV} must be an integer, got {env!r}") from None
    if value < 1:
        raise ValueError(f"{SAMPLE_ENV} must be >= 1, got {value}")
    return value


def reset_sampling() -> None:
    """Reset the per-site sample counters (worker/test isolation)."""
    _SAMPLE_COUNTS.clear()


def sampled_span(name: str, **attrs: Any) -> Any:
    """A profiling-mode span recorded every Nth call per site.

    The counter is per span name and process-local, so which calls get
    recorded is a pure function of the call sequence — deterministic
    across identical runs.
    """
    if not profiling_enabled():
        return NULL_SPAN
    count = _SAMPLE_COUNTS.get(name, 0)
    _SAMPLE_COUNTS[name] = count + 1
    if count % sample_every():
        return NULL_SPAN
    return span(name, **attrs)


# -- phase mapping ------------------------------------------------------------

#: Span name -> pipeline phase.  Every span the harness emits maps
#: somewhere; names absent from this table land in ``other`` and count
#: against the attribution coverage (so a new unmapped span *lowers*
#: coverage instead of hiding).
PHASE_OF_SPAN: Dict[str, str] = {
    # trace recording
    "workload.build": "workload-build",
    "kernel.record_trace": "walker",
    "kernel.record_counts": "walker",
    "trace.index": "walker",
    "record_traces": "walker",
    # replay pipeline
    "replay.multi_run": "replay-walk",
    "replay.run": "replay-walk",
    "threshold_sweep": "replay-walk",
    "region.form": "region-formation",
    "sweep.profiles": "profile-build",
    "sweep.snapshot": "snapshot",
    "sweep.navep": "navep-solve",
    # downstream models
    "perf_model": "perfmodel",
    "perfmodel.estimate_cost": "perfmodel",
    "verify_study": "verify",
    # persistence
    "cache.save_shard": "cache-io",
    "cache.load_shard": "cache-io",
    "cache.save_aggregate": "cache-io",
    "cache.load_aggregate": "cache-io",
    # dispatch machinery
    "dispatch.order": "dispatch",
    "dispatch.merge": "dispatch",
    "dispatch.wait": "dispatch-wait",
    "pool_rebuild": "dispatch",
    "fallback_inline": "dispatch",
    # containers: their *exclusive* remainder is harness bookkeeping
    "full_study": "harness",
    "study_benchmark": "harness",
}

#: Phases that do not count as "named" attribution (coverage
#: denominator still includes them).
UNATTRIBUTED_PHASES = ("harness", "other")


def phase_of(name: str) -> str:
    """The pipeline phase a span name attributes to."""
    return PHASE_OF_SPAN.get(name, "other")


class PhaseProfile:
    """Exclusive/inclusive wall-time breakdown per pipeline phase.

    Attributes:
        total_seconds: sum of root-span durations across every lane —
            the profile's attribution denominator.
        phases: ``{phase: exclusive seconds}``, summing to
            ``total_seconds`` exactly.
        span_counts: ``{phase: number of contributing spans}``.
        inclusive: ``{span name: (count, total inclusive seconds)}`` —
            the hotspot table's raw material.
        lanes: ``{(pid, tid): lane root seconds}``.
    """

    def __init__(self) -> None:
        self.total_seconds = 0.0
        self.phases: Dict[str, float] = {}
        self.span_counts: Dict[str, int] = {}
        self.inclusive: Dict[str, Tuple[int, float]] = {}
        self.lanes: Dict[Tuple[int, int], float] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[Dict[str, Any]]) -> "PhaseProfile":
        """Roll complete-span ('X') Chrome events into a phase profile.

        Events are grouped into lanes by ``(pid, tid)``; within a lane
        spans nest properly (the span stack guarantees it), so a single
        sweep with a stack recovers each span's direct-children time and
        thereby its exclusive time.
        """
        profile = cls()
        lanes: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
        for event in events:
            if event.get("ph") != "X" or "dur" not in event:
                continue
            key = (int(event.get("pid", 0)), int(event.get("tid", 0)))
            lanes.setdefault(key, []).append(event)

        for key, lane_events in lanes.items():
            # Parents start no later than their children and outlast
            # them; sorting by (start, -duration) therefore visits every
            # parent before any of its children.
            lane_events.sort(key=lambda e: (e["ts"], -e["dur"]))
            # Stack of (end timestamp, child-time accumulator index).
            stack: List[List[float]] = []
            lane_total = 0.0
            for event in lane_events:
                ts, dur = float(event["ts"]), float(event["dur"])
                end = ts + dur
                while stack and stack[-1][0] <= ts + 1e-9:
                    profile._close(stack.pop())
                if stack:
                    stack[-1][2] += dur  # direct child of the open span
                else:
                    lane_total += dur
                name = event["name"]
                count, total = profile.inclusive.get(name, (0, 0.0))
                profile.inclusive[name] = (count + 1, total + dur / 1e6)
                stack.append([end, name, 0.0, dur])
            while stack:
                profile._close(stack.pop())
            profile.lanes[key] = lane_total / 1e6
            profile.total_seconds += lane_total / 1e6
        return profile

    def _close(self, frame: List[Any]) -> None:
        """Fold one finished span frame into the phase totals."""
        _, name, child_time, dur = frame
        exclusive = max(0.0, dur - child_time) / 1e6
        phase = phase_of(name)
        self.phases[phase] = self.phases.get(phase, 0.0) + exclusive
        self.span_counts[phase] = self.span_counts.get(phase, 0) + 1

    # -- derived numbers -----------------------------------------------------

    @property
    def attributed_seconds(self) -> float:
        """Seconds attributed to *named* phases (not harness/other)."""
        return sum(seconds for phase, seconds in self.phases.items()
                   if phase not in UNATTRIBUTED_PHASES)

    @property
    def coverage(self) -> float:
        """Fraction of total wall time attributed to named phases."""
        if self.total_seconds <= 0:
            return 0.0
        return self.attributed_seconds / self.total_seconds

    def hotspots(self, count: int = 12) -> List[Tuple[str, int, float]]:
        """The top span names by total inclusive time."""
        rows = [(name, n, total)
                for name, (n, total) in self.inclusive.items()]
        rows.sort(key=lambda row: -row[2])
        return rows[:count]

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (persisted into the run manifest)."""
        return {
            "total_seconds": round(self.total_seconds, 6),
            "attributed_seconds": round(self.attributed_seconds, 6),
            "coverage": round(self.coverage, 4),
            "lanes": len(self.lanes),
            "phases": {
                phase: {"seconds": round(seconds, 6),
                        "share": round(seconds / self.total_seconds, 4)
                        if self.total_seconds else 0.0,
                        "spans": self.span_counts.get(phase, 0)}
                for phase, seconds in sorted(self.phases.items(),
                                             key=lambda kv: -kv[1])},
            "hotspots": [
                {"span": name, "count": n, "seconds": round(total, 6)}
                for name, n, total in self.hotspots()],
        }

    @staticmethod
    def render(data: Dict[str, Any]) -> str:
        """Human-readable tables from :meth:`to_dict` output."""
        lines = [f"phase profile: {data['total_seconds']:.3f}s across "
                 f"{data.get('lanes', 1)} lane(s), "
                 f"{data['coverage'] * 100:.1f}% attributed to named "
                 f"phases"]
        lines.append(f"  {'phase':18s} {'seconds':>10s} {'share':>7s} "
                     f"{'spans':>7s}")
        for phase, row in data.get("phases", {}).items():
            lines.append(f"  {phase:18s} {row['seconds']:10.3f} "
                         f"{row['share'] * 100:6.1f}% {row['spans']:7d}")
        hotspots = data.get("hotspots") or []
        if hotspots:
            lines.append("  hotspots (inclusive):")
            lines.append(f"    {'span':26s} {'count':>7s} {'seconds':>10s}")
            for row in hotspots:
                lines.append(f"    {row['span']:26s} {row['count']:7d} "
                             f"{row['seconds']:10.3f}")
        return "\n".join(lines)
