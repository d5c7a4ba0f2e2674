"""Deterministic fault injection and failure-policy knobs for the study.

The resilient dispatcher (:mod:`repro.harness.pool`) survives worker
crashes, hangs and torn cache writes; this module makes those failures
*reproducible on demand* so the behaviour is testable end to end instead
of only on unlucky hardware.

``REPRO_FAULT_SPEC`` holds a comma- or whitespace-separated list of
rules, each ``target:kind[:count]``::

    REPRO_FAULT_SPEC="gzip:crash:1,mcf:hang:1,shard:torn-write"

* ``<bench>:crash[:N]`` — the first N attempts of that benchmark kill
  their worker process outright (``os._exit``), breaking the process
  pool exactly like a segfault or OOM kill would.  Inline (in-process)
  execution raises :class:`InjectedFault` instead, so the parent
  survives.
* ``<bench>:hang[:N]`` — the first N attempts sleep far past any
  reasonable ``--job-timeout`` (override the sleep with
  ``REPRO_FAULT_HANG_SECONDS`` in tests).
* ``<bench>:error[:N]`` — the first N attempts raise
  :class:`InjectedFault` inside the worker: the pool stays healthy and
  only that job fails.
* ``shard:torn-write[:N]`` — the next N cache-file writes die partway
  through (see :func:`repro.ioutil.atomic_write_text`): a partial temp
  file is left behind and the destination is never replaced.  Shards
  are written as jobs finish, and jobs are dispatched largest ref step
  budget first, so the torn writes hit the largest benchmarks' shards.

Fault *decisions* are drawn in the parent at submission time, per
benchmark name, and shipped to the worker with the job, so the schedule
is deterministic regardless of dispatch order and pool scheduling, and
the ``faults.injected.*`` counters survive the worker's death.  One
:class:`FaultPlan` is armed per
:func:`~repro.harness.runner.run_full_study` call, parsed from the
resolved spec's ``fault_spec`` (see :mod:`repro.harness.studyspec`).
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from typing import List, Optional

from ..obs import log as obslog
from ..obs.registry import inc

#: Environment variable shortening the injected hang (tests).
HANG_SECONDS_ENV = "REPRO_FAULT_HANG_SECONDS"

#: How long an injected hang sleeps (must outlive any job timeout).
HANG_SECONDS = 3600.0

#: Fault kinds fired inside a study job.
WORKER_FAULT_KINDS = ("crash", "hang", "error")

#: All recognised fault kinds.
FAULT_KINDS = WORKER_FAULT_KINDS + ("torn-write",)

_log = obslog.get_logger("repro.harness.faults")

#: Set in pool workers (initializer) so ``crash`` may really kill the
#: process; inline execution raises instead of taking the parent down.
_IN_WORKER = False

#: The plan armed by the currently running study (torn-write hook).
_ACTIVE: Optional["FaultPlan"] = None


class InjectedFault(RuntimeError):
    """The failure deterministically injected by a fault rule."""


class FaultSpecError(ValueError):
    """``REPRO_FAULT_SPEC`` could not be parsed."""


@dataclass
class FaultRule:
    """One parsed spec entry: fire ``kind`` on ``target``, ``remaining`` times."""

    target: str
    kind: str
    remaining: int


class FaultPlan:
    """A consumable schedule of fault rules (one per study run)."""

    def __init__(self, rules: Optional[List[FaultRule]] = None):
        self.rules = list(rules or [])

    @classmethod
    def from_spec(cls, spec: Optional[str]) -> "FaultPlan":
        """Parse a ``target:kind[:count]`` list (see the module docs)."""
        rules: List[FaultRule] = []
        for entry in re.split(r"[,\s]+", (spec or "").strip()):
            if not entry:
                continue
            parts = entry.split(":")
            if len(parts) not in (2, 3):
                raise FaultSpecError(
                    f"bad fault entry {entry!r}: want target:kind[:count]")
            target, kind = parts[0], parts[1]
            if kind not in FAULT_KINDS:
                raise FaultSpecError(
                    f"unknown fault kind {kind!r} in {entry!r} "
                    f"(known: {', '.join(FAULT_KINDS)})")
            if (kind == "torn-write") != (target == "shard"):
                raise FaultSpecError(
                    f"bad fault entry {entry!r}: torn-write targets "
                    f"'shard', worker faults target a benchmark")
            try:
                count = int(parts[2]) if len(parts) == 3 else 1
            except ValueError:
                raise FaultSpecError(
                    f"bad fault count in {entry!r}") from None
            if count < 1:
                raise FaultSpecError(f"fault count must be >= 1: {entry!r}")
            rules.append(FaultRule(target=target, kind=kind,
                                   remaining=count))
        return cls(rules)

    def draw(self, name: str) -> Optional[str]:
        """Consume and return the worker fault due for ``name``, if any.

        Called in the parent at submission time so the decision is
        deterministic and the counter outlives the (possibly dying)
        worker.
        """
        for rule in self.rules:
            if (rule.target == name and rule.remaining > 0
                    and rule.kind in WORKER_FAULT_KINDS):
                rule.remaining -= 1
                inc(f"faults.injected.{rule.kind}")
                _log.warning("injecting fault", bench=name, kind=rule.kind)
                return rule.kind
        return None

    def refund(self, name: str, kind: str) -> None:
        """Return an unfired token drawn for an attempt that never ran.

        When a pool break or timeout teardown aborts an attempt before
        its injected fault could do its work (a hang interrupted by a
        pool-mate's crash, say), the schedule would silently lose that
        fault; refunding keeps the spec's intent — "this benchmark
        hangs once" — deterministic under interleaving.
        """
        inc("faults.refunded")
        for rule in self.rules:
            if rule.target == name and rule.kind == kind:
                rule.remaining += 1
                return
        self.rules.append(FaultRule(target=name, kind=kind, remaining=1))

    def draw_torn_write(self) -> bool:
        """Consume one torn-write token, if the plan holds any."""
        for rule in self.rules:
            if rule.kind == "torn-write" and rule.remaining > 0:
                rule.remaining -= 1
                inc("faults.injected.torn_write")
                return True
        return False

    def any_hangs(self) -> bool:
        """Whether the plan still holds hang rules (needs a timeout)."""
        return any(r.kind == "hang" and r.remaining > 0
                   for r in self.rules)


def set_active_plan(plan: Optional[FaultPlan]) -> None:
    """Arm ``plan`` for the current study (``None`` disarms)."""
    global _ACTIVE
    _ACTIVE = plan


def should_tear_write() -> bool:
    """Whether the next cache write should be torn (consumes a token)."""
    return _ACTIVE is not None and _ACTIVE.draw_torn_write()


def mark_worker_process() -> None:
    """Record that this process is a pool worker (pool initializer)."""
    global _IN_WORKER
    _IN_WORKER = True


def fire(kind: str, name: str) -> None:
    """Fire one worker fault drawn by the parent for this attempt."""
    if kind == "crash":
        if _IN_WORKER:
            os._exit(99)
        raise InjectedFault(f"injected crash in {name} (inline)")
    if kind == "hang":
        if _IN_WORKER:
            seconds = float(os.environ.get(HANG_SECONDS_ENV, HANG_SECONDS))
            time.sleep(seconds)
            raise InjectedFault(
                f"injected hang in {name} outlived {seconds}s")
        raise InjectedFault(
            f"injected hang in {name} (inline execution refuses to sleep)")
    if kind == "error":
        raise InjectedFault(f"injected error in {name}")
    raise ValueError(f"unknown fault kind {kind!r}")

