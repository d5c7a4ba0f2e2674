"""The instrument catalog: every metric name, documented or the build fails.

Counters and histograms are created on first use, which is convenient
and also how instruments silently escape documentation.  This module
closes the loop: :data:`CATALOG` declares every instrument the codebase
emits (wildcard ``*`` segments cover families like ``retry.*``),
:func:`scan_sources` finds every ``inc``/``observe``/``set_gauge`` call
site with a literal (or f-string) name, and the test suite asserts the
two agree — an undocumented instrument is a test failure, not a surprise
in a dashboard.

:func:`markdown_table` renders the catalog as the table embedded in
``docs/observability.md`` between the ``counter-table`` markers; the
same test regenerates it and fails on drift.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, Iterable, List, Optional, Set, Tuple

KINDS = ("counter", "gauge", "histogram")


@dataclass(frozen=True)
class Instrument:
    """One documented instrument (or wildcard family of them)."""

    name: str   # dotted name; "*" segments match any one value
    kind: str   # "counter" | "gauge" | "histogram"
    doc: str

    def matches(self, name: str) -> bool:
        """Whether a concrete instrument name falls under this entry."""
        return fnmatchcase(name, self.name)


CATALOG: List[Instrument] = [
    # -- walker and the interpreter reference ---------------------------------
    Instrument("kernel.vector.runs", "counter",
               "Trace recordings performed by the vector walker."),
    Instrument("kernel.vector.steps", "counter",
               "Simulated steps walked by the vector kernel."),
    Instrument("kernel.vector.decisions", "counter",
               "Branch decisions drawn by the vector kernel."),
    Instrument("kernel.vector.windows", "counter",
               "All-states speculation windows the vector kernel ran."),
    Instrument("kernel.vector.windows.exact", "counter",
               "Windows that may cross a phase boundary, the step budget "
               "or a warm-up's end, so were clipped from their decisions' "
               "positions instead of their histogram alone."),
    Instrument("kernel.vector.decisions.discarded", "counter",
               "Window decisions evaluated beyond the accepted prefix "
               "(speculation waste)."),
    Instrument("kernel.vector.count_runs", "counter",
               "Count-only walks (whole-run use/taken, no per-step "
               "arrays); also counted in kernel.vector.runs."),
    Instrument("trace.index_builds", "counter",
               "Per-block event indexes built (lazily, on first use)."),
    Instrument("trace.index_bytes", "histogram",
               "Bytes held by each event index built, every buffer "
               "counted once (residues, bucket tables, outcomes and "
               "checkpoints)."),
    Instrument("trace.count_passes", "counter",
               "Whole-run counts bincounted from a trace's per-step "
               "arrays (traces not recorded by the vector walker)."),
    Instrument("trace.decodes", "counter",
               "Per-step blocks/taken arrays decoded from a walker "
               "trace's decision log (only when something reads them)."),
    Instrument("interp.runs", "counter",
               "Reference interpreter executions."),
    Instrument("interp.steps", "counter",
               "Steps executed by the reference interpreter."),
    Instrument("interp.blocks_executed", "counter",
               "Basic blocks executed by the reference interpreter."),
    Instrument("interp.events_emitted", "counter",
               "Events (blocks + branches) emitted by the interpreter."),
    # -- translation / replay pipeline ----------------------------------------
    Instrument("translator.blocks_translated", "counter",
               "Blocks translated by the two-phase translator."),
    Instrument("translator.optimization_events", "counter",
               "Hot-threshold crossings handled by the translator."),
    Instrument("translator.regions_formed", "counter",
               "Regions formed during translator optimization."),
    Instrument("translator.retranslations", "counter",
               "Blocks retranslated at the optimized tier."),
    Instrument("replay.runs", "counter",
               "Replay runs over a recorded trace (all replayers); a "
               "multi-threshold sweep counts once, however many "
               "thresholds it holds."),
    Instrument("replay.blocks_translated", "counter",
               "Distinct blocks quick-translated per replay run; a "
               "multi-threshold sweep counts its trace once, not once "
               "per threshold state."),
    Instrument("replay.kernel.batched.windows", "counter",
               "Position windows materialized by the batched replay "
               "kernel."),
    Instrument("replay.kernel.batched.events", "counter",
               "Registration events swept in bulk by the batched "
               "replay kernel."),
    Instrument("replay.retranslations", "counter",
               "Blocks promoted to the optimized tier during replay."),
    Instrument("replay.regions_formed", "counter",
               "Regions formed during replay optimization."),
    Instrument("replay.optimization_events", "counter",
               "Optimization events fired during replay."),
    Instrument("pool.evictions", "counter",
               "Blocks evicted from the translation pool."),
    Instrument("navep.clipped_copies", "counter",
               "Negative NAVEP copy frequencies clipped to zero after "
               "the least-squares solve."),
    Instrument("navep.clipped_negative_mass", "histogram",
               "Negative frequency mass clipped per NAVEP solve (0 when "
               "the solution was non-negative)."),
    Instrument("navep.residual_norm", "histogram",
               "Euclidean residual norm of each NAVEP least-squares "
               "solve, before the clip."),
    Instrument("navep.rank_deficit", "histogram",
               "Unknowns minus matrix rank per NAVEP solve (0 when the "
               "system has full column rank)."),
    Instrument("navep.rank_deficient", "counter",
               "NAVEP solves whose system was rank-deficient."),
    Instrument("navep.conservation_drift", "histogram",
               "Worst relative conservation drift per NAVEP solve: how "
               "far a duplicated block's copies sum from its AVEP use "
               "count (0 when no block is duplicated)."),
    Instrument("perfmodel.estimates", "counter",
               "Cost-model estimates computed."),
    Instrument("perfmodel.side_exits", "counter",
               "Side exits accounted by the cost model."),
    # -- study cache ----------------------------------------------------------
    Instrument("cache.hit", "counter",
               "Aggregate study-cache hits."),
    Instrument("cache.miss", "counter",
               "Aggregate study-cache misses."),
    Instrument("cache.stale", "counter",
               "Aggregate cache entries rejected as stale."),
    Instrument("cache.shard.hit", "counter",
               "Per-benchmark shard cache hits."),
    Instrument("cache.shard.miss", "counter",
               "Per-benchmark shard cache misses."),
    Instrument("cache.shard.stale", "counter",
               "Per-benchmark shards rejected as stale."),
    # -- dispatch, retries and fault tolerance --------------------------------
    Instrument("study.duplicate_names", "counter",
               "Duplicate benchmark names dropped before dispatch."),
    Instrument("study.jobs", "gauge",
               "Worker processes the dispatcher ran with."),
    Instrument("blas.threads", "gauge",
               "OpenBLAS threads the study ran on (one; absent when the "
               "library is not reachable)."),
    Instrument("retry.*", "counter",
               "Job retries by failure reason (error/timeout/crash), "
               "plus retry.resubmitted for requeued jobs."),
    Instrument("faults.injected.*", "counter",
               "Test-only injected faults fired, by kind."),
    Instrument("faults.refunded", "counter",
               "Injected fault draws refunded on the non-charged path."),
    Instrument("pool.warm_hit", "counter",
               "Dispatches that adopted a parked warm worker pool."),
    Instrument("pool.warm_miss", "counter",
               "Dispatches that had to spawn a fresh worker pool."),
    Instrument("faults.pool_rebuild", "counter",
               "Process-pool rebuilds after a crashed worker."),
    Instrument("faults.timeout", "counter",
               "Jobs culled for exceeding the per-job timeout."),
    Instrument("faults.quarantined", "counter",
               "Jobs quarantined after exhausting retries."),
    Instrument("faults.fallback.success", "counter",
               "Pool-broken jobs recovered by the inline fallback."),
    Instrument("faults.fallback.error", "counter",
               "Pool-broken jobs that failed again inline."),
    Instrument("flight.dumps", "counter",
               "Flight-recorder dump files written on failure paths."),
    Instrument("dispatch.*_seconds", "histogram",
               "Per-job dispatch segment times: serialize, queue, spawn, "
               "execute, transfer, merge."),
    Instrument("dispatch.payload_bytes", "histogram",
               "Pickled job payload sizes shipped to workers."),
    # -- analysis subsystem ---------------------------------------------------
    Instrument("analysis.checks", "counter",
               "Semantic-verifier checks executed."),
    Instrument("analysis.diagnostics", "counter",
               "Diagnostics produced by the semantic verifier."),
    Instrument("analysis.diagnostics.*", "counter",
               "Verifier diagnostics by severity."),
    Instrument("analysis.studies_failed", "counter",
               "Verification studies that raised instead of completing."),
    Instrument("analysis.cli.files", "counter",
               "Files processed by the analysis CLI."),
    Instrument("analysis.passcheck.runs", "counter",
               "Pass-equivalence checks executed."),
    Instrument("analysis.passcheck.failures", "counter",
               "Pass-equivalence checks that found a mismatch."),
    # -- timing ---------------------------------------------------------------
    Instrument("study.benchmark_seconds", "histogram",
               "Wall seconds per study benchmark (successful attempts)."),
    Instrument("span.*.seconds", "histogram",
               "Duration histogram fed by every completed span, one per "
               "span name."),
    Instrument("profile.coverage", "gauge",
               "Fraction of study wall time the phase profiler attributed "
               "to named phases."),
]

_KIND_OF_CALL = {"inc": "counter", "set_gauge": "gauge",
                 "observe": "histogram"}

#: Call sites with a literal or f-string first argument.
_CALL_RE = re.compile(
    r"""\b(?:_registry\.)?(inc|set_gauge|observe)\(\s*f?"([^"]+)"\s*[,)]""")

#: F-string placeholders become single-segment wildcards.
_PLACEHOLDER_RE = re.compile(r"\{[^}]*\}")


def find(name: str, kind: str) -> Optional[Instrument]:
    """The catalog entry covering a concrete instrument, if any."""
    for entry in CATALOG:
        if entry.kind == kind and entry.matches(name):
            return entry
    return None


def scan_sources(root: str) -> Set[Tuple[str, str]]:
    """Every ``(kind, name)`` instrument emitted under ``root``.

    F-string names have their ``{...}`` placeholders replaced by ``*``
    so they compare against wildcard catalog entries.  Only literal
    first arguments are visible to the scan; the registry's own method
    definitions pass variables and are skipped automatically.
    """
    found: Set[Tuple[str, str]] = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            for call, name in _CALL_RE.findall(text):
                pattern = _PLACEHOLDER_RE.sub("*", name)
                found.add((_KIND_OF_CALL[call], pattern))
    return found


def uncataloged(found: Iterable[Tuple[str, str]]) -> List[Tuple[str, str]]:
    """The scanned instruments no catalog entry covers."""
    missing = []
    for kind, name in sorted(found):
        if find(name, kind) is None:
            missing.append((kind, name))
    return missing


def markdown_table() -> str:
    """The catalog as the markdown table embedded in the docs."""
    order = {kind: i for i, kind in enumerate(KINDS)}
    rows = sorted(CATALOG, key=lambda e: (order[e.kind], e.name))
    lines = ["| Instrument | Kind | Meaning |",
             "| --- | --- | --- |"]
    for entry in rows:
        lines.append(f"| `{entry.name}` | {entry.kind} | {entry.doc} |")
    return "\n".join(lines)
