"""Differential verification of the optimisation passes.

``opt.constprop`` and ``opt.dce`` transform straight-line superblock
code.  This module proves (to probe-testing confidence) that a given
before/after pair is actually equivalent:

* **structural checks** — DCE may only *delete* instructions (the output
  must be an order-preserving subsequence of the input) and must keep
  every side-effecting instruction; constprop is 1:1 (same length, same
  write-register set and side-effect opcode at every position);
* **differential execution** — both sequences run on a battery of
  deterministic pseudo-random machine states (registers from a seeded
  LCG, memory a lazy deterministic background) and must leave identical
  observable state: all of memory, plus every register in ``live_out``
  (or every register, under DCE's all-registers default).

Binary-op evaluation reuses :func:`repro.opt.constprop._fold`, so the
checker's arithmetic agrees with the folder's by construction; a probe
on which the *original* code would fault (division by zero) is skipped,
while an optimised sequence that faults where the original did not is a
miscompile.

Sequences containing ``call`` skip the differential battery (the callee
is opaque) but still get the structural checks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..ir.instructions import BINARY_OPS, Instruction, Opcode
from ..obs import inc
from ..opt.constprop import _fold
from ..opt.dce import ALL_REGISTERS
from ..opt.ir_utils import writes
from .verify import Severity, VerifyReport

#: Number of pseudo-random machine states each differential check runs.
NUM_PROBES = 5

#: Opcodes whose presence/position the structural checks pin down.
_EFFECT_OPS = frozenset({Opcode.STORE, Opcode.CALL})


class PassVerificationError(AssertionError):
    """A verified pass produced non-equivalent code.

    Carries the full :class:`VerifyReport` as ``report``.
    """

    def __init__(self, report: VerifyReport):
        self.report = report
        super().__init__(report.render(Severity.ERROR))


class _Trap(Exception):
    """The mini-evaluator hit a faulting operation (division by zero)."""


class _ProbeState:
    """One machine state: explicit registers, lazy deterministic memory."""

    def __init__(self, registers: Dict[str, float]):
        self.registers = dict(registers)
        self._memory: Dict[int, float] = {}

    def load(self, addr: int) -> float:
        value = self._memory.get(addr)
        if value is None:
            # Deterministic background so both runs read the same value
            # at any address without materialising the whole array.  Not
            # recorded into ``_memory``: only stores are observable, so a
            # pass that deletes a dead load stays equivalent.
            value = ((int(addr) * 2654435761) & 0xFFFF) % 251 - 125
        return value

    def store(self, addr: int, value: float) -> None:
        self._memory[addr] = value

    def observable(self, live: Optional[Iterable[str]]
                   ) -> Dict[str, object]:
        regs = self.registers if live is None else \
            {r: self.registers.get(r, 0) for r in live}
        return {"regs": dict(regs), "mem": dict(self._memory)}


def _probe_registers(universe: Sequence[str], seed: int
                     ) -> Dict[str, float]:
    """Seeded LCG register assignment, biased toward small values so
    folding paths (0, 1, negatives) are exercised."""
    state = (seed * 2654435761 + 0x9E3779B9) & 0x7FFFFFFF
    registers: Dict[str, float] = {}
    for reg in sorted(universe):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        registers[reg] = (state >> 7) % 17 - 8
    return registers


def _execute(code: Sequence[Instruction], state: _ProbeState) -> None:
    """Run straight-line code on ``state``; raises :class:`_Trap` on a
    faulting op and ValueError on anything non-straight-line."""
    regs = state.registers
    for instr in code:
        op = instr.opcode
        if op is Opcode.NOP:
            continue
        if op is Opcode.LI:
            regs[instr.regs[0]] = instr.imm  # type: ignore[assignment]
        elif op is Opcode.MOV:
            regs[instr.regs[0]] = regs.get(instr.regs[1], 0)
        elif op is Opcode.NEG:
            regs[instr.regs[0]] = -regs.get(instr.regs[1], 0)
        elif op in BINARY_OPS:
            lhs = regs.get(instr.regs[1], 0)
            rhs = regs.get(instr.regs[2], 0)
            folded = _fold(op, lhs, rhs)
            if folded is None:
                raise _Trap(f"{op.value} faulted on ({lhs}, {rhs})")
            regs[instr.regs[0]] = folded
        elif op is Opcode.LOAD:
            addr = int(regs.get(instr.regs[1], 0)) + int(instr.imm or 0)
            regs[instr.regs[0]] = state.load(addr)
        elif op is Opcode.STORE:
            addr = int(regs.get(instr.regs[1], 0)) + int(instr.imm or 0)
            state.store(addr, regs.get(instr.regs[0], 0))
        else:
            raise ValueError(f"{op.value} is not straight-line code")


def _register_universe(*sequences: Sequence[Instruction]) -> Set[str]:
    universe: Set[str] = set()
    for code in sequences:
        for instr in code:
            universe.update(instr.regs)
    return universe


def _differential(before: Sequence[Instruction],
                  after: Sequence[Instruction],
                  live_out: Optional[Iterable[str]],
                  pass_name: str, report: VerifyReport) -> None:
    """Run both sequences on probe states and compare observable state."""
    if any(i.opcode is Opcode.CALL for i in before) or \
            any(i.opcode is Opcode.CALL for i in after):
        report.info(f"passcheck.{pass_name}.call-skip", pass_name,
                    "sequence contains call; differential battery skipped")
        return
    universe = _register_universe(before, after)
    live = None if live_out is ALL_REGISTERS else set(live_out)  # type: ignore[arg-type]
    for seed in range(NUM_PROBES):
        registers = _probe_registers(sorted(universe), seed)
        ref = _ProbeState(registers)
        try:
            _execute(before, ref)
        except _Trap:
            continue  # the original faults on this probe: not comparable
        out = _ProbeState(registers)
        try:
            _execute(after, out)
        except _Trap as exc:
            report.error(
                f"passcheck.{pass_name}.introduced-fault", pass_name,
                f"optimised code faults ({exc}) on probe {seed} where the "
                "original does not")
            return
        if ref.observable(live) != out.observable(live):
            report.error(
                f"passcheck.{pass_name}.state-divergence", pass_name,
                f"probe {seed}: observable state differs after the pass "
                f"(live-out {'ALL' if live is None else sorted(live)})")
            return


def _is_subsequence(after: Sequence[Instruction],
                    before: Sequence[Instruction]) -> bool:
    it = iter(before)
    return all(any(instr == candidate for candidate in it)
               for instr in after)


def check_dce(before: Sequence[Instruction],
              after: Sequence[Instruction],
              live_out: Optional[Iterable[str]] = ALL_REGISTERS,
              report: Optional[VerifyReport] = None) -> VerifyReport:
    """Verify one dead-code-elimination run (structural + differential)."""
    report = report if report is not None else VerifyReport()
    inc("analysis.passcheck.runs")
    if len(after) > len(before):
        report.error("passcheck.dce.grew", "dce",
                     f"output has {len(after)} instructions, input "
                     f"{len(before)}; DCE only deletes")
    elif not _is_subsequence(after, before):
        report.error("passcheck.dce.not-subsequence", "dce",
                     "output is not an order-preserving subsequence of "
                     "the input")
    removed_effects = sum(1 for i in before if i.opcode in _EFFECT_OPS) - \
        sum(1 for i in after if i.opcode in _EFFECT_OPS)
    if removed_effects > 0:
        report.error("passcheck.dce.dropped-effect", "dce",
                     f"{removed_effects} side-effecting instruction(s) "
                     "(store/call) were deleted")
    _differential(before, after, live_out, "dce", report)
    if not report.ok:
        inc("analysis.passcheck.failures")
    return report


def check_constprop(before: Sequence[Instruction],
                    after: Sequence[Instruction],
                    report: Optional[VerifyReport] = None) -> VerifyReport:
    """Verify one constant-propagation run (structural + differential)."""
    report = report if report is not None else VerifyReport()
    inc("analysis.passcheck.runs")
    if len(after) != len(before):
        report.error("passcheck.constprop.length", "constprop",
                     f"output has {len(after)} instructions, input "
                     f"{len(before)}; constprop rewrites 1:1")
    else:
        for index, (b, a) in enumerate(zip(before, after)):
            if set(writes(b)) != set(writes(a)):
                report.error(
                    "passcheck.constprop.write-set", "constprop",
                    f"instruction {index} writes {sorted(writes(a))}, "
                    f"original wrote {sorted(writes(b))}")
            if (b.opcode in _EFFECT_OPS or a.opcode in _EFFECT_OPS) \
                    and b.opcode is not a.opcode:
                report.error(
                    "passcheck.constprop.effect-rewrite", "constprop",
                    f"instruction {index} changed {b.opcode.value} -> "
                    f"{a.opcode.value}; side-effect ops keep their opcode")
    _differential(before, after, ALL_REGISTERS, "constprop", report)
    if not report.ok:
        inc("analysis.passcheck.failures")
    return report


def checked_pipeline(before: Sequence[Instruction],
                     live_out: Optional[Iterable[str]] = ALL_REGISTERS
                     ) -> List[Instruction]:
    """Run constprop then DCE, verifying each step; raises
    :class:`PassVerificationError` on any miscompile."""
    from ..opt.constprop import propagate_constants
    from ..opt.dce import eliminate_dead_code

    propagated = propagate_constants(list(before))
    report = check_constprop(before, propagated)
    optimized = eliminate_dead_code(propagated, live_out=live_out)
    check_dce(propagated, optimized, live_out=live_out, report=report)
    if not report.ok:
        raise PassVerificationError(report)
    return optimized
