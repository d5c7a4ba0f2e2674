"""Run manifests: what ran, under what config, how long, what it counted.

A manifest is a plain dict distilled at the end of a study run:
configuration fingerprint, the repro version, per-benchmark and total
wall times, and a full metrics snapshot.  It is persisted inside the
:class:`~repro.harness.results.StudyResults` cache file — so a cached
study still answers "what produced this?" — and rendered for humans by
``repro-study --stats``.
"""

from __future__ import annotations

import platform
import time
from typing import Any, Dict, Iterable, Optional, Sequence

from .registry import metrics_snapshot

MANIFEST_VERSION = 1


def build_manifest(fingerprint: str,
                   names: Iterable[str],
                   thresholds: Sequence[int],
                   config: Optional[Any] = None,
                   steps_scale: float = 1.0,
                   include_perf: bool = True,
                   timings: Optional[Dict[str, float]] = None,
                   total_seconds: Optional[float] = None,
                   extra: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """Assemble a manifest dict for one study run.

    Args:
        fingerprint: the cache key of the run's configuration.
        names: benchmark names that ran.
        thresholds: simulator thresholds swept.
        config: the :class:`~repro.dbt.config.DBTConfig` used (its
            fields are embedded; any object with ``__dict__`` works).
        steps_scale: run-length scaling factor.
        include_perf: whether the cost model ran.
        timings: per-benchmark wall seconds.
        total_seconds: whole-study wall seconds.
        extra: additional keys merged in verbatim.
    """
    from .. import __version__

    manifest: Dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "repro_version": __version__,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "fingerprint": fingerprint,
        "benchmarks": list(names),
        "thresholds": list(thresholds),
        "steps_scale": steps_scale,
        "include_perf": include_perf,
        "timings": dict(timings or {}),
        "total_seconds": total_seconds,
        "metrics": metrics_snapshot(),
    }
    if config is not None:
        manifest["config"] = {k: v for k, v in vars(config).items()}
    if extra:
        manifest.update(extra)
    return manifest


def render_manifest(manifest: Optional[Dict[str, Any]]) -> str:
    """Human-readable rendering of a manifest (the --stats output)."""
    if not manifest:
        return "run manifest: none recorded (results predate the " \
               "observability layer)"
    lines = ["run manifest"]
    for key in ("fingerprint", "repro_version", "created_at", "python",
                "steps_scale", "include_perf", "total_seconds", "jobs"):
        if manifest.get(key) is not None:
            lines.append(f"  {key:15s} {manifest[key]}")
    blas = manifest.get("blas")
    if blas:
        lines.append(f"  {'blas':15s} core {blas['core']}, threads "
                     f"{blas['threads']}")
    benchmarks = manifest.get("benchmarks") or []
    lines.append(f"  {'benchmarks':15s} {len(benchmarks)}: "
                 f"{' '.join(benchmarks)}")
    cached = manifest.get("cached_benchmarks")
    if cached is not None:
        lines.append(f"  {'from cache':15s} {len(cached)}: "
                     f"{' '.join(cached)}")
    timings = manifest.get("timings") or {}
    if timings:
        lines.append("  timings (s), slowest first:")
        for name, seconds in sorted(timings.items(),
                                    key=lambda kv: -kv[1]):
            lines.append(f"    {name:12s} {seconds:8.3f}")
    metrics = manifest.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        lines.append("  counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"    {name:32s} {value}")
    histograms = metrics.get("histograms") or {}
    if histograms:
        lines.append("  histograms (count / mean / p99):")
        for name, summary in sorted(histograms.items()):
            if not summary.get("count"):
                continue
            lines.append(f"    {name:32s} {summary['count']:6d} / "
                         f"{summary['mean']:.4g} / {summary['p99']:.4g}")
    if manifest.get("profile"):
        from .profile import PhaseProfile
        lines.append(PhaseProfile.render(manifest["profile"]))
    if manifest.get("dispatch"):
        from . import dispatch as _dispatch
        lines.append(_dispatch.render(manifest["dispatch"]))
    navep = manifest.get("navep")
    if navep:
        lines.append(
            f"NAVEP health: {navep['solves']} solves; worst residual "
            f"{navep['max_residual_norm']:.3g} "
            f"({navep['max_residual_bench']}); "
            f"{navep['rank_deficient']} rank-deficient "
            f"(max deficit {navep['max_rank_deficit']}); worst "
            f"conservation drift "
            f"{navep.get('max_conservation_drift', 0.0):.2%} "
            f"({navep.get('max_drift_bench') or '-'})")
    return "\n".join(lines)
