"""Aggregated study results: everything the figures plot, serialisable.

A full-suite run is expensive (tens of millions of simulated block
executions), so the harness distils each benchmark's study into a compact
:class:`BenchmarkResult` of plain numbers and persists it for reuse.

Since format v6 the on-disk cache is *sharded*: each benchmark's result
lives in its own ``shard-<bench>-<fingerprint>.json`` file (see
:func:`save_shard`/:func:`load_shard`), and the run-level
``study-<key>.json`` is a thin aggregate holding only the manifest and
the shard index (:func:`save_aggregate`/:func:`load_aggregate`).  Adding
a benchmark, changing the name subset, or resuming an interrupted run
therefore only recomputes the missing shards.  v5 monolithic files fail
the version check and are recomputed with a warning.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ioutil import atomic_write_text
from ..obs.spans import span
from . import faults

_FORMAT_VERSION = 6


def _write_json(path: str, payload: Dict) -> None:
    """Crash-safe JSON write (temp file + rename, see :mod:`repro.ioutil`).

    An interrupted writer — ``kill -9``, OOM, power loss — must never
    leave a truncated file behind that a later run fails to load; the
    ``tear`` hook lets the fault-injection harness prove exactly that.
    """
    atomic_write_text(path, json.dumps(payload),
                      tear=faults.should_tear_write())


@dataclass
class PerfPoint:
    """Cost-model output for one threshold (Figure 17 raw material)."""

    total: float
    unoptimized: float
    optimized: float
    side_exits: float
    translation: float
    num_side_exits: int
    optimized_fraction: float


@dataclass
class BenchmarkResult:
    """One benchmark's numbers across the threshold sweep.

    All per-threshold maps are keyed by the *simulator* threshold; use
    :func:`repro.workloads.nominal_label` for paper-nominal axis labels.
    ``None`` values mean "nothing to compare" at that point.
    """

    name: str
    suite: str
    thresholds: List[int]
    sd_bp: Dict[int, Optional[float]]
    bp_mismatch: Dict[int, Optional[float]]
    sd_cp: Dict[int, Optional[float]]
    sd_lp: Dict[int, Optional[float]]
    lp_mismatch: Dict[int, Optional[float]]
    train_sd_bp: Optional[float]
    train_bp_mismatch: Optional[float]
    train_sd_cp: Optional[float]
    train_sd_lp: Optional[float]
    profiling_ops: Dict[int, int]
    train_ops: int
    avep_ops: int
    num_regions: Dict[int, int] = field(default_factory=dict)
    perf: Dict[int, PerfPoint] = field(default_factory=dict)
    #: Rendered semantic-verifier findings (``--verify`` runs only; empty
    #: when verification was off or found nothing at warning+ severity).
    verify_findings: List[str] = field(default_factory=list)

    def perf_relative(self, base_threshold: int = 1
                      ) -> Dict[int, Optional[float]]:
        """Figure 17 normalisation: ``cost(base)/cost(T)`` per threshold.

        A degenerate perf point with ``total == 0`` (nothing executed)
        maps to ``None`` — "nothing to compare" — rather than dividing
        by zero.
        """
        if base_threshold not in self.perf:
            raise KeyError(f"no perf point for base {base_threshold}")
        base = self.perf[base_threshold].total
        return {t: (base / p.total if p.total else None)
                for t, p in self.perf.items()}


@dataclass
class StudyResults:
    """The whole suite's results.

    Attributes:
        benchmarks: per-benchmark distilled numbers, keyed by name.
        manifest: the run manifest the harness attached (config
            fingerprint, timings, metric snapshot — see
            :func:`repro.obs.build_manifest`); ``None`` for results
            assembled by hand.
    """

    benchmarks: Dict[str, BenchmarkResult] = field(default_factory=dict)
    manifest: Optional[Dict] = None

    def names(self, suite: Optional[str] = None) -> List[str]:
        """Benchmark names, optionally filtered by suite."""
        return sorted(n for n, r in self.benchmarks.items()
                      if suite is None or r.suite == suite)

    def of_suite(self, suite: str) -> List[BenchmarkResult]:
        """All results of one suite."""
        return [self.benchmarks[n] for n in self.names(suite)]


# -- shard + aggregate persistence (cache format v6) -------------------------


def shard_filename(name: str, fingerprint: str) -> str:
    """Cache filename of one benchmark's shard under a config fingerprint."""
    return f"shard-{name}-{fingerprint}.json"


def save_shard(path: str, result: BenchmarkResult, fingerprint: str,
               seconds: float) -> None:
    """Persist one benchmark's result as a cache shard.

    ``seconds`` records the compute wall time so cached reloads can still
    report what the original computation cost.  The write is atomic: an
    interrupted run never leaves a truncated shard behind.
    """
    with span("cache.save_shard", bench=result.name):
        payload = {
            "version": _FORMAT_VERSION,
            "benchmark": result.name,
            "fingerprint": fingerprint,
            "seconds": seconds,
            "result": _result_to_dict(result),
        }
        _write_json(path, payload)


def load_shard(path: str, expect_name: Optional[str] = None,
               expect_fingerprint: Optional[str] = None
               ) -> Tuple[BenchmarkResult, float]:
    """Read a shard written by :func:`save_shard`.

    When ``expect_name``/``expect_fingerprint`` are given, the payload's
    own ``benchmark`` and ``fingerprint`` fields must match — the
    filename alone is never trusted, so a mis-filed or hand-copied shard
    cannot smuggle the wrong benchmark's numbers into a run.  Mismatches
    raise :class:`ValueError`, which callers treat as a stale shard
    (``cache.shard.stale``).  Also raises :class:`ValueError` on a
    format-version mismatch and the usual
    :class:`FileNotFoundError`/:class:`json.JSONDecodeError` on missing or
    corrupt files.
    """
    with span("cache.load_shard"):
        return _load_shard(path, expect_name, expect_fingerprint)


def _load_shard(path, expect_name, expect_fingerprint
                ) -> Tuple[BenchmarkResult, float]:
    with open(path) as f:
        payload = json.load(f)
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"stale shard file (format v{payload.get('version')}, "
            f"expected v{_FORMAT_VERSION})")
    if expect_name is not None and payload.get("benchmark") != expect_name:
        raise ValueError(
            f"shard benchmark mismatch: payload says "
            f"{payload.get('benchmark')!r}, expected {expect_name!r}")
    if (expect_fingerprint is not None
            and payload.get("fingerprint") != expect_fingerprint):
        raise ValueError(
            f"shard fingerprint mismatch: payload says "
            f"{payload.get('fingerprint')!r}, expected "
            f"{expect_fingerprint!r}")
    result = _result_from_dict(payload["result"])
    if expect_name is not None and result.name != expect_name:
        raise ValueError(
            f"shard result mismatch: result is for {result.name!r}, "
            f"expected {expect_name!r}")
    return result, float(payload.get("seconds") or 0.0)


def save_aggregate(path: str, manifest: Optional[Dict],
                   shard_files: Dict[str, str]) -> None:
    """Persist the thin run-level aggregate: manifest + shard index.

    The write is atomic, like every cache write in this module.
    """
    with span("cache.save_aggregate", shards=len(shard_files)):
        payload = {
            "version": _FORMAT_VERSION,
            "manifest": manifest,
            "shards": shard_files,
        }
        _write_json(path, payload)


def load_aggregate(path: str) -> Tuple[Optional[Dict], Dict[str, str]]:
    """Read an aggregate written by :func:`save_aggregate`.

    Returns ``(manifest, {benchmark name: shard filename})``.  Raises
    :class:`ValueError` on a format-version mismatch — v5 monolithic
    ``study-*.json`` files land here and get recomputed.
    """
    with span("cache.load_aggregate"):
        with open(path) as f:
            payload = json.load(f)
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"stale results file (format v{payload.get('version')}, "
            f"expected v{_FORMAT_VERSION})")
    shards = payload.get("shards")
    if not isinstance(shards, dict):
        raise ValueError("aggregate file has no shard index")
    return payload.get("manifest"), shards


def _intkeys(d: Dict) -> Dict[int, object]:
    return {int(k): v for k, v in d.items()}


def _result_to_dict(result: BenchmarkResult) -> Dict:
    data = asdict(result)
    return data


def _result_from_dict(data: Dict) -> BenchmarkResult:
    perf = {int(k): PerfPoint(**v) for k, v in data.pop("perf").items()}
    result = BenchmarkResult(
        name=data["name"], suite=data["suite"],
        thresholds=list(data["thresholds"]),
        sd_bp=_intkeys(data["sd_bp"]),
        bp_mismatch=_intkeys(data["bp_mismatch"]),
        sd_cp=_intkeys(data["sd_cp"]),
        sd_lp=_intkeys(data["sd_lp"]),
        lp_mismatch=_intkeys(data["lp_mismatch"]),
        train_sd_bp=data["train_sd_bp"],
        train_bp_mismatch=data["train_bp_mismatch"],
        train_sd_cp=data.get("train_sd_cp"),
        train_sd_lp=data.get("train_sd_lp"),
        profiling_ops=_intkeys(data["profiling_ops"]),
        train_ops=data["train_ops"],
        avep_ops=data["avep_ops"],
        num_regions=_intkeys(data["num_regions"]),
        perf=perf,
        verify_findings=list(data.get("verify_findings") or []))
    return result


def average_series(results: List[BenchmarkResult], attribute: str,
                   thresholds: List[int]) -> Dict[int, Optional[float]]:
    """Average a per-threshold metric across benchmarks, skipping Nones.

    This is how the paper's suite lines (e.g. Figure 8's INT/FP averages)
    are formed from the individual benchmark curves.
    """
    out: Dict[int, Optional[float]] = {}
    for t in thresholds:
        values = [getattr(r, attribute).get(t) for r in results]
        values = [v for v in values if v is not None]
        out[t] = sum(values) / len(values) if values else None
    return out


def average_scalar(results: List[BenchmarkResult],
                   attribute: str) -> Optional[float]:
    """Average a per-benchmark scalar (e.g. the train SD), skipping Nones."""
    values = [getattr(r, attribute) for r in results]
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None
