"""Region optimisation: the optimisation phase's retranslation, for real.

Given a formed :class:`~repro.profiles.model.Region` over a VIR program,
this module extracts the region's main-path instruction sequence (the
superblock a trace scheduler would build), runs the classic cleanup
passes (constant/copy propagation, dead-code elimination) and re-schedules
the result, reporting how much the optimised translation gains over
quick-translated sequential execution — the quantity behind the paper's
"benefit from the optimized execution" in §4.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ir.instructions import Instruction
from ..ir.program import Program
from ..profiles.model import ProfileSnapshot, Region
from .constprop import propagate_constants
from .dce import ALL_REGISTERS, eliminate_dead_code
from .ir_utils import is_straightline
from .scheduler import MachineModel, list_schedule, sequential_cycles


def main_path_instances(region: Region) -> List[int]:
    """Instance indices along the region's entry→tail main path.

    Follows internal edges from the entry, preferring the path that
    reaches the designated tail (regions are internally acyclic, so a
    simple DFS suffices).
    """
    succs: Dict[int, List[int]] = {}
    for src, dst, _ in region.internal_edges:
        succs.setdefault(src, []).append(dst)

    target = region.tail
    path: List[int] = []

    def dfs(inst: int) -> bool:
        path.append(inst)
        if inst == target:
            return True
        for nxt in succs.get(inst, ()):
            if nxt not in path and dfs(nxt):
                return True
        path.pop()
        return False

    if dfs(0):
        return path
    return [0]


def extract_superblock(program: Program, region: Region
                       ) -> List[Instruction]:
    """Straight-line body instructions along the region's main path.

    Terminators are dropped — in the retranslated superblock they become
    guards/side-exit stubs whose cost the region's completion probability
    already captures; the optimisable computation is the straight-line
    body.
    """
    table = program.block_table()
    code: List[Instruction] = []
    for instance in main_path_instances(region):
        block = table[region.members[instance]][1]
        code.extend(instr for instr in block.instructions
                    if is_straightline(instr))
    return code


@dataclass
class RegionOptimizationReport:
    """Before/after numbers for one retranslated region."""

    region_id: int
    original_instructions: int
    optimized_instructions: int
    sequential_cycles: int
    scheduled_cycles: int

    @property
    def speedup(self) -> float:
        """Sequential (quick-translated) cycles over scheduled cycles."""
        if self.scheduled_cycles <= 0:
            return 1.0
        return self.sequential_cycles / self.scheduled_cycles

    @property
    def instructions_removed(self) -> int:
        """Instructions eliminated by the cleanup passes."""
        return self.original_instructions - self.optimized_instructions


def optimize_region(program: Program, region: Region,
                    machine: MachineModel = MachineModel(),
                    live_out=ALL_REGISTERS,
                    verify: bool = False) -> RegionOptimizationReport:
    """Run the full pass pipeline on one region and measure the gain.

    With ``verify=True`` each pass is checked structurally and
    differentially (see :mod:`repro.analysis.passcheck`); a miscompile
    raises :class:`repro.analysis.passcheck.PassVerificationError`.
    """
    original = extract_superblock(program, region)
    if verify:
        # Imported lazily: repro.analysis depends on repro.opt, and the
        # fast path must not pay for the verifier machinery.
        from ..analysis.passcheck import PassVerificationError, \
            check_constprop, check_dce
        propagated = propagate_constants(original)
        report = check_constprop(original, propagated)
        optimized = eliminate_dead_code(propagated, live_out=live_out)
        check_dce(propagated, optimized, live_out=live_out, report=report)
        if not report.ok:
            raise PassVerificationError(report)
    else:
        optimized = eliminate_dead_code(propagate_constants(original),
                                        live_out=live_out)
    return RegionOptimizationReport(
        region_id=region.region_id,
        original_instructions=len(original),
        optimized_instructions=len(optimized),
        sequential_cycles=sequential_cycles(original, machine),
        scheduled_cycles=list_schedule(optimized, machine).length)


def optimize_snapshot_regions(program: Program,
                              snapshot: ProfileSnapshot,
                              machine: MachineModel = MachineModel(),
                              verify: bool = False
                              ) -> List[RegionOptimizationReport]:
    """Retranslate every region of an INIP snapshot, reporting each gain."""
    return [optimize_region(program, region, machine, verify=verify)
            for region in snapshot.regions]


def mean_speedup(reports: List[RegionOptimizationReport],
                 weights: Optional[List[float]] = None) -> float:
    """Weighted mean region speedup (defaults to unweighted)."""
    if not reports:
        return 1.0
    if weights is None:
        weights = [1.0] * len(reports)
    total = sum(weights)
    if total <= 0:
        return 1.0
    return sum(r.speedup * w for r, w in zip(reports, weights)) / total
