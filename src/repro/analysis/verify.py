"""Semantic verifier for CFGs, programs, regions, profiles and studies.

Every checker returns (or extends) a :class:`VerifyReport` — a flat list
of :class:`Diagnostic` findings with three severities:

* **ERROR** — an invariant the pipeline relies on is broken: the
  artefact is corrupt or a pass miscompiled.  The lint CLI and the
  harness treat any error as a violation (non-zero exit).
* **WARNING** — legal but suspicious (unreachable block, conservation
  drift above tolerance, irreducible control flow).
* **INFO** — context worth surfacing, never a failure.

The invariants encoded here are exactly the ones the paper's
methodology silently assumes (see ``docs/analysis.md`` for the full
rule table):

* regions are single-entry, internally acyclic DAGs whose instances are
  all reachable from the entry, with out-edges that mirror the static
  CFG exactly — every CFG successor of a member appears exactly once as
  an internal, back, or exit edge of the matching kind;
* counters satisfy ``taken <= use``; a frozen region *entry* froze with
  ``T <= use <= 2T`` (the registration band — the upper bound is
  inclusive because the second registration fires exactly at ``2T``)
  and every member froze no later than the event that formed its
  region;
* ``profiling_ops`` equals the sum of all use and taken counts;
* NAVEP conserves flow: the copies of a duplicated block sum to the
  block's AVEP frequency (within least-squares tolerance).

Each diagnostic bumps the ``analysis.diagnostics.<severity>`` counters,
and every ``verify_*`` entry point bumps ``analysis.checks``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..cfg.dominators import compute_dominators
from ..cfg.graph import ControlFlowGraph
from ..cfg.traversal import reachable
from ..dbt.codecache import TranslationMap
from ..dbt.config import DBTConfig
from ..ir.program import Program
from ..obs import inc
from ..profiles.model import (EdgeKind, ProfileSnapshot, Region, RegionKind)
from .loops import irreducible_edges


class Severity(enum.Enum):
    """How bad a finding is (ordered: INFO < WARNING < ERROR)."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Diagnostic:
    """One verifier finding.

    Attributes:
        code: stable machine-readable rule id, e.g. ``"region.internal-cycle"``.
        severity: see :class:`Severity`.
        where: what the finding is about (block label, region id, ...).
        message: human-readable explanation.
    """

    code: str
    severity: Severity
    where: str
    message: str

    def render(self) -> str:
        """``severity code @ where: message`` single-line form."""
        return (f"{self.severity.value}: [{self.code}] {self.where}: "
                f"{self.message}")


@dataclass
class VerifyReport:
    """Accumulated diagnostics of one or more verification passes."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, code: str, severity: Severity, where: str,
            message: str) -> None:
        """Record one finding (and bump the obs counters)."""
        self.diagnostics.append(Diagnostic(code, severity, where, message))
        inc("analysis.diagnostics")
        inc(f"analysis.diagnostics.{severity.value}")

    def error(self, code: str, where: str, message: str) -> None:
        self.add(code, Severity.ERROR, where, message)

    def warning(self, code: str, where: str, message: str) -> None:
        self.add(code, Severity.WARNING, where, message)

    def info(self, code: str, where: str, message: str) -> None:
        self.add(code, Severity.INFO, where, message)

    def extend(self, other: "VerifyReport") -> "VerifyReport":
        """Append another report's findings (no re-counting)."""
        self.diagnostics.extend(other.diagnostics)
        return self

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was recorded."""
        return not self.errors

    def codes(self) -> Set[str]:
        """The distinct rule ids that fired."""
        return {d.code for d in self.diagnostics}

    def render(self, min_severity: Severity = Severity.INFO) -> str:
        """All findings at or above ``min_severity``, one per line."""
        order = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}
        floor = order[min_severity]
        lines = [d.render() for d in self.diagnostics
                 if order[d.severity] >= floor]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# CFG / program level
# ---------------------------------------------------------------------------

def verify_cfg(cfg: ControlFlowGraph,
               report: Optional[VerifyReport] = None) -> VerifyReport:
    """Lint one CFG: reachability, reducibility, exits."""
    report = report if report is not None else VerifyReport()
    inc("analysis.checks")
    live = reachable(cfg)
    for v in range(cfg.num_nodes):
        if v not in live:
            report.warning("cfg.unreachable", cfg.label(v),
                           "node is unreachable from the entry")
    dom = compute_dominators(cfg)
    for tail, head in irreducible_edges(cfg, dom):
        report.warning(
            "cfg.irreducible", f"{cfg.label(tail)}->{cfg.label(head)}",
            "retreating edge whose head does not dominate its tail "
            "(irreducible control flow; region formation may split it)")
    if not cfg.exit_nodes():
        report.info("cfg.no-exit", cfg.label(cfg.entry),
                    "graph has no exit node (every run is cut off by the "
                    "step budget)")
    return report


def verify_program(program: Program,
                   report: Optional[VerifyReport] = None) -> VerifyReport:
    """Lint a VIR program: structure, reachability, undefined reads.

    Structural problems (the :func:`repro.ir.validate.validate_program`
    rules plus mislabelled blocks) are errors; unreachable blocks and
    possibly-undefined register reads are warnings.
    """
    from ..ir.validate import program_diagnostics
    from .dataflow import possibly_undefined_reads

    report = report if report is not None else VerifyReport()
    inc("analysis.checks")
    diags = program_diagnostics(program)
    for where, message in diags.errors:
        report.error("ir.invalid", where, message)
    for where, message in diags.warnings:
        report.warning("ir.suspicious", where, message)
    if diags.errors:
        return report  # dataflow needs a structurally sound program

    for fn in program:
        if fn.entry is None:
            continue
        if fn.name != program.entry:
            # Registers live in one global file shared across calls, so
            # a called function's reads are routinely defined by its
            # caller — the intraprocedural analysis can only be trusted
            # on the program's entry function.
            continue
        for label, index, reg in possibly_undefined_reads(fn):
            report.warning(
                "ir.maybe-undefined-read", f"{fn.name}:{label}[{index}]",
                f"register {reg!r} may be read before any definition "
                "reaches it (it would hold the implicit initial 0)")
    return report


# ---------------------------------------------------------------------------
# Region level
# ---------------------------------------------------------------------------

def _expected_out_edges(cfg: ControlFlowGraph,
                        block: int) -> Dict[EdgeKind, int]:
    """CFG successor of ``block`` per edge kind."""
    succ = cfg.successors(block)
    if len(succ) == 2:
        return {EdgeKind.TAKEN: succ[0], EdgeKind.FALL: succ[1]}
    if len(succ) == 1:
        return {EdgeKind.ALWAYS: succ[0]}
    return {}


def verify_region(region: Region, cfg: ControlFlowGraph,
                  report: Optional[VerifyReport] = None) -> VerifyReport:
    """Check one region against the static CFG it was formed from.

    Errors: member ids out of range, duplicated members inside one
    region, internal edges into the entry (regions are single-entry),
    internal cycles, instances unreachable from the entry, back edges on
    a non-loop region, and any out-edge set that does not mirror the
    member's CFG successors exactly (kind and destination block).
    """
    report = report if report is not None else VerifyReport()
    inc("analysis.checks")
    where = f"region {region.region_id}"
    try:
        region.validate()
    except ValueError as exc:
        report.error("region.malformed", where, str(exc))
        return report

    n = region.num_instances
    for instance, block in enumerate(region.members):
        if not 0 <= block < cfg.num_nodes:
            report.error("region.member-out-of-range", where,
                         f"instance {instance} refers to block {block}, "
                         f"outside the {cfg.num_nodes}-block CFG")
            return report
    if len(set(region.members)) != len(region.members):
        dupes = sorted({b for b in region.members
                        if region.members.count(b) > 1})
        report.error("region.duplicate-member", where,
                     f"blocks {dupes} appear more than once; duplication "
                     "happens across regions, never within one")

    if region.kind is RegionKind.LINEAR and region.back_edges:
        report.error("region.back-edge-on-linear", where,
                     f"{len(region.back_edges)} back edge(s) on a "
                     "non-loop region")

    # Single entry: instance 0 has no internal in-edges (loop re-entry
    # goes through back edges, which are recorded separately).
    for src, dst, _ in region.internal_edges:
        if dst == 0:
            report.error("region.entry-internal-edge", where,
                         f"internal edge {src}->0 targets the entry; "
                         "regions are single-entry (use a back edge)")

    # Internal edges must form a DAG with every instance reachable
    # from the entry.
    adjacency: Dict[int, List[int]] = {}
    for src, dst, _ in region.internal_edges:
        adjacency.setdefault(src, []).append(dst)
    state = [0] * n  # 0 = unvisited, 1 = on stack, 2 = done
    stack: List[Tuple[int, int]] = [(0, 0)]
    state[0] = 1
    cycle = False
    while stack:
        node, index = stack[-1]
        targets = adjacency.get(node, [])
        if index < len(targets):
            stack[-1] = (node, index + 1)
            nxt = targets[index]
            if state[nxt] == 0:
                state[nxt] = 1
                stack.append((nxt, 0))
            elif state[nxt] == 1:
                cycle = True
        else:
            state[node] = 2
            stack.pop()
    if cycle:
        report.error("region.internal-cycle", where,
                     "internal edges form a cycle; only back edges to "
                     "the entry may close a loop")
    for instance in range(n):
        if state[instance] == 0:
            report.error(
                "region.unreachable-instance", where,
                f"instance {instance} (block {region.members[instance]}) "
                "is not reachable from the entry along internal edges")

    # Every out-edge must mirror the member's CFG terminator: same kind
    # set, each kind exactly once, destinations matching the CFG.
    for instance in range(n):
        block = region.members[instance]
        expected = _expected_out_edges(cfg, block)
        seen: Dict[EdgeKind, int] = {}
        for kind, internal_dst, exit_target in \
                region.instance_successors(instance):
            seen[kind] = seen.get(kind, 0) + 1
            target_block = region.members[internal_dst] \
                if internal_dst is not None else exit_target
            if kind not in expected:
                report.error(
                    "region.edge-kind-mismatch", where,
                    f"instance {instance} (block {block}) has a "
                    f"{kind.value} edge but the CFG terminator has "
                    f"{sorted(k.value for k in expected)} edge(s)")
            elif target_block != expected[kind]:
                report.error(
                    "region.edge-target-mismatch", where,
                    f"instance {instance} (block {block}): {kind.value} "
                    f"edge goes to block {target_block}, CFG says "
                    f"{expected[kind]}")
        for kind, count in seen.items():
            if count > 1:
                report.error(
                    "region.duplicate-edge", where,
                    f"instance {instance} (block {block}) has {count} "
                    f"{kind.value} edges; a terminator side is taken "
                    "exactly once")
        for kind in expected:
            if kind not in seen:
                report.error(
                    "region.incomplete-exits", where,
                    f"instance {instance} (block {block}) is missing its "
                    f"{kind.value} edge; every CFG successor must appear "
                    "as an internal, back, or exit edge")
    return report


# ---------------------------------------------------------------------------
# Profile / counter level
# ---------------------------------------------------------------------------

def verify_snapshot(snapshot: ProfileSnapshot,
                    cfg: Optional[ControlFlowGraph] = None,
                    config: Optional[DBTConfig] = None,
                    report: Optional[VerifyReport] = None) -> VerifyReport:
    """Check a profile snapshot's counters, regions and freeze bookkeeping.

    With a ``cfg``, each region is structurally verified against it.
    With a ``config`` (and an INIP snapshot carrying its threshold), the
    frozen-counter registration band is enforced: a region entry must
    have frozen with ``use`` in ``[T, 2T]`` when
    ``register_twice_triggers`` is on.
    """
    report = report if report is not None else VerifyReport()
    inc("analysis.checks")
    label = snapshot.label

    total_ops = 0
    for block_id, profile in snapshot.blocks.items():
        where = f"{label} block {block_id}"
        if block_id != profile.block_id:
            report.error("profile.key-mismatch", where,
                         f"dict key {block_id} != profile block_id "
                         f"{profile.block_id}")
        if profile.use < 0 or profile.taken < 0:
            report.error("counter.negative", where,
                         f"use={profile.use} taken={profile.taken}")
            continue
        if profile.taken > profile.use:
            report.error("counter.taken-exceeds-use", where,
                         f"taken {profile.taken} > use {profile.use}")
        if profile.use == 0:
            report.warning("counter.zero-use-entry", where,
                           "profile entry for a never-executed block")
        if profile.frozen_at is not None:
            if not 0 <= profile.frozen_at <= snapshot.total_steps:
                report.error(
                    "counter.freeze-out-of-run", where,
                    f"frozen_at {profile.frozen_at} outside run of "
                    f"{snapshot.total_steps} steps")
        total_ops += profile.use + profile.taken
    if snapshot.profiling_ops != total_ops:
        report.error(
            "profile.ops-mismatch", label,
            f"profiling_ops {snapshot.profiling_ops} != sum of use+taken "
            f"{total_ops}")

    # Region structure and freeze linkage.
    seen_ids: Set[int] = set()
    member_blocks: Set[int] = set()
    for region in snapshot.regions:
        if region.region_id in seen_ids:
            report.error("region.duplicate-id", label,
                         f"region id {region.region_id} used twice")
        seen_ids.add(region.region_id)
        member_blocks.update(region.members)
        if cfg is not None:
            verify_region(region, cfg, report)
        else:
            try:
                region.validate()
            except ValueError as exc:
                report.error("region.malformed",
                             f"region {region.region_id}", str(exc))
                continue
        _verify_region_freeze(snapshot, region, config, report)

    for block_id, profile in snapshot.blocks.items():
        if profile.frozen_at is not None and block_id not in member_blocks:
            report.error(
                "profile.frozen-not-optimized",
                f"{label} block {block_id}",
                "counters are frozen but the block is in no region; "
                "only optimisation events freeze counters")
    if not snapshot.regions and snapshot.threshold is not None \
            and any(p.is_frozen for p in snapshot.blocks.values()):
        report.error("profile.frozen-without-regions", label,
                     "frozen counters but no regions recorded")
    return report


def _verify_region_freeze(snapshot: ProfileSnapshot, region: Region,
                          config: Optional[DBTConfig],
                          report: VerifyReport) -> None:
    """Freeze bookkeeping of one region's members."""
    label = snapshot.label
    where = f"{label} region {region.region_id}"
    for instance, block_id in enumerate(region.members):
        profile = snapshot.blocks.get(block_id)
        if profile is None:
            report.warning(
                "region.member-unprofiled", where,
                f"member block {block_id} has no profile entry (it was "
                "never counted before being optimised)")
            continue
        if profile.frozen_at is None:
            report.error(
                "region.member-not-frozen", where,
                f"member block {block_id} still has live counters; "
                "optimisation must freeze every member")
            continue
        if profile.frozen_at > region.formed_at:
            report.error(
                "region.frozen-after-formation", where,
                f"member block {block_id} frozen at {profile.frozen_at}, "
                f"after the region formed at {region.formed_at}")
        if instance == 0 and profile.frozen_at != region.formed_at:
            report.error(
                "region.entry-freeze-step", where,
                f"entry block {block_id} frozen at {profile.frozen_at} "
                f"but the region formed at {region.formed_at}; seeds "
                "freeze at their own formation event")

    threshold = snapshot.threshold
    if threshold is None:
        return
    entry = snapshot.blocks.get(region.entry_block)
    if entry is None:
        return
    # The entry seeded the region out of the candidate pool, so it was
    # registered: its frozen use is at least T.  With the
    # register-twice trigger a second registration fires at exactly 2T,
    # so the count can never exceed 2T (the band is [T, 2T] inclusive).
    if entry.use < threshold:
        report.error(
            "counter.frozen-below-threshold", where,
            f"entry block {region.entry_block} froze with use "
            f"{entry.use} < threshold {threshold}; it could not have "
            "been registered")
    if (config is None or config.register_twice_triggers) \
            and entry.use > 2 * threshold:
        report.error(
            "counter.frozen-above-band", where,
            f"entry block {region.entry_block} froze with use "
            f"{entry.use} > 2T ({2 * threshold}); the second "
            "registration must have triggered optimisation at 2T")


# ---------------------------------------------------------------------------
# Normalisation (NAVEP) level
# ---------------------------------------------------------------------------

#: Relative conservation drift above which NAVEP gets a warning.  The
#: least-squares solve drifts up to ~6.5% on the short (``--quick``)
#: runs of the stock suite, so the floor sits above that noise band.
CONSERVATION_WARN_TOL = 0.10
#: Relative drift above which the normalisation is considered broken.
CONSERVATION_ERROR_TOL = 0.5


def verify_normalization(normalized, avep: ProfileSnapshot,
                         warn_tol: float = CONSERVATION_WARN_TOL,
                         error_tol: float = CONSERVATION_ERROR_TOL,
                         report: Optional[VerifyReport] = None
                         ) -> VerifyReport:
    """Kirchhoff-style flow-conservation check on a NAVEP result.

    For every duplicated block ``b`` the copies' frequencies must sum to
    ``b``'s AVEP use count.  The solve is a least-squares blend of flow
    and conservation equations, so small drift is expected: relative
    error above ``warn_tol`` warns, above ``error_tol`` errors.
    Non-finite or negative stored copy frequencies are always errors.
    The solver clips negative copies to zero, so the *raw* solution is
    judged from the clipped mass it records: a duplicated block whose
    copies lost more than ``error_tol`` of its AVEP frequency to the
    clip is an error too.

    Args:
        normalized: a :class:`repro.core.markov.NormalizedProfile`.
        avep: the average profile that was normalised.
    """
    report = report if report is not None else VerifyReport()
    inc("analysis.checks")
    graph = normalized.graph
    for idx, value in enumerate(normalized.frequencies):
        if not math.isfinite(value):
            report.error("navep.non-finite", f"copy {graph.nodes[idx]}",
                         f"frequency is {value}")
        elif value < 0:
            report.error("navep.negative-frequency",
                         f"copy {graph.nodes[idx]}",
                         f"frequency {value} < 0")
    for block, drift in normalized.conservation_drift(avep).items():
        expected = float(avep.block_frequency(block))
        actual = normalized.block_total(block)
        scale = max(expected, 1.0)
        clipped = normalized.block_negative_mass(block)
        if clipped > error_tol * scale:
            report.error(
                "navep.negative-frequency", f"block {block}",
                f"the solve put {clipped:.1f} of negative frequency on its "
                f"copies (clipped to 0) against an AVEP count of "
                f"{expected:.1f}")
        if drift > error_tol:
            report.error(
                "navep.flow-not-conserved", f"block {block}",
                f"copies sum to {actual:.1f} but AVEP counts {expected:.1f} "
                f"(relative drift {drift:.2%})")
        elif drift > warn_tol:
            report.warning(
                "navep.conservation-drift", f"block {block}",
                f"copies sum to {actual:.1f} vs AVEP {expected:.1f} "
                f"(relative drift {drift:.2%})")
    return report


# ---------------------------------------------------------------------------
# Translation-map level
# ---------------------------------------------------------------------------

def verify_translation_map(tmap: TranslationMap, cfg: ControlFlowGraph,
                           snapshot: Optional[ProfileSnapshot] = None,
                           report: Optional[VerifyReport] = None
                           ) -> VerifyReport:
    """Consistency of a :class:`~repro.dbt.codecache.TranslationMap`.

    Internal pairs must be real CFG edges; when the snapshot that
    produced the map is given, region/translation counts and per-block
    freeze steps must agree with it.
    """
    report = report if report is not None else VerifyReport()
    inc("analysis.checks")
    cfg_edges = set(cfg.edges())
    for src, dst in sorted(tmap.internal_pairs):
        if (src, dst) not in cfg_edges:
            report.error(
                "tmap.phantom-edge", f"{src}->{dst}",
                "recorded as a region-internal edge but it is not a CFG "
                "edge")
    if tmap.num_blocks != cfg.num_nodes:
        report.error("tmap.size-mismatch", "translation map",
                     f"covers {tmap.num_blocks} blocks, CFG has "
                     f"{cfg.num_nodes}")
    if snapshot is not None:
        if tmap.regions_formed != len(snapshot.regions):
            report.error(
                "tmap.region-count", "translation map",
                f"records {tmap.regions_formed} regions, snapshot has "
                f"{len(snapshot.regions)}")
        expected_instances = sum(r.num_instances for r in snapshot.regions)
        if tmap.blocks_translated != expected_instances:
            report.error(
                "tmap.instance-count", "translation map",
                f"records {tmap.blocks_translated} translated copies, "
                f"regions hold {expected_instances} instances")
        members = {b for r in snapshot.regions for b in r.members}
        for block in range(tmap.num_blocks):
            step = tmap.optimized_at[block]
            frozen = snapshot.blocks.get(block)
            frozen_at = frozen.frozen_at if frozen is not None else None
            if math.isinf(step):
                if frozen_at is not None:
                    report.error(
                        "tmap.freeze-mismatch", f"block {block}",
                        f"snapshot froze it at {frozen_at} but the map "
                        "says it was never optimised")
            else:
                if block not in members:
                    report.error(
                        "tmap.optimized-nonmember", f"block {block}",
                        "optimised according to the map but in no region")
                if frozen_at is not None and frozen_at != step:
                    report.error(
                        "tmap.freeze-mismatch", f"block {block}",
                        f"map says optimised at {step:.0f}, snapshot "
                        f"froze at {frozen_at}")
    return report


# ---------------------------------------------------------------------------
# Whole-study level
# ---------------------------------------------------------------------------

def verify_study(study, config: Optional[DBTConfig] = None,
                 check_normalization: bool = True) -> VerifyReport:
    """Verify every artefact of a finished BenchmarkStudy.

    Covers the AVEP and training profiles, each threshold's INIP
    snapshot (regions included) against the study CFG, each outcome's
    translation map, and — when ``check_normalization`` — the NAVEP
    flow conservation for each INIP snapshot with regions.
    """
    from ..core.markov import normalize_avep
    from ..core.normalize import DuplicatedGraph

    report = VerifyReport()
    inc("analysis.checks")
    cfg = study.cfg
    verify_cfg(cfg, report)
    verify_snapshot(study.avep, cfg, report=report)
    verify_snapshot(study.train_profile, cfg, report=report)
    for threshold, outcome in sorted(study.outcomes.items()):
        snap_config = config.with_threshold(threshold) if config is not None \
            else None
        verify_snapshot(outcome.snapshot, cfg, config=snap_config,
                        report=report)
        replay = getattr(outcome, "replay", None)
        if replay is not None:
            verify_translation_map(replay.translation_map(), cfg,
                                   snapshot=outcome.snapshot, report=report)
        if check_normalization and outcome.snapshot.regions:
            graph = DuplicatedGraph(cfg, outcome.snapshot)
            normalized = normalize_avep(graph, study.avep)
            verify_normalization(normalized, study.avep, report=report)
    if not report.ok:
        inc("analysis.studies_failed")
    return report
