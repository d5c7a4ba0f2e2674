"""Branch-behaviour models for the stochastic block-level engine.

A synthetic benchmark is a CFG plus, for every two-way branch, a
*behaviour*: the probability of taking the branch as a function of
execution time.  Time has two useful clocks:

* the **global step** — how many blocks the whole program has executed —
  which expresses *program phases* (the paper's Mcf phase changes);
* the **local use count** — how many times this particular branch has
  executed — which expresses *warm-up bias* (early iterations of a loop
  behaving unlike the steady state, the paper's Gzip/Wupwise effect).

:class:`BranchBehavior` combines a piecewise-constant global-phase schedule
with an optional local warm-up override.  Loop trip counts are expressed
through the latch branch's taken probability: a geometric trip count with
mean ``t`` corresponds to a loop-back probability ``(t-1)/t`` (paper §4.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


def _check_probability(p: float, what: str) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{what} {p} outside [0, 1]")
    return float(p)


@dataclass(frozen=True)
class Phase:
    """One phase of a global schedule.

    Attributes:
        until: global step at which the phase ends (``math.inf`` for the
            final phase).
        p: taken probability during the phase.
    """

    until: float
    p: float

    def __post_init__(self) -> None:
        _check_probability(self.p, "phase probability")
        if self.until <= 0:
            raise ValueError("phase end must be positive")


@dataclass(frozen=True)
class BranchBehavior:
    """Time-varying taken probability of one branch.

    Attributes:
        phases: global-step schedule, strictly increasing ``until`` values,
            last one ``math.inf``.
        warmup_uses: during the branch's first ``warmup_uses`` executions,
            ``warmup_p`` overrides the schedule (0 disables warm-up).
        warmup_p: the warm-up probability.
    """

    phases: Tuple[Phase, ...]
    warmup_uses: int = 0
    warmup_p: float = 0.5

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("behaviour needs at least one phase")
        last = 0.0
        for phase in self.phases:
            if phase.until <= last:
                raise ValueError("phase ends must be strictly increasing")
            last = phase.until
        if not math.isinf(self.phases[-1].until):
            raise ValueError("final phase must extend to infinity")
        if self.warmup_uses < 0:
            raise ValueError("warmup_uses must be non-negative")
        _check_probability(self.warmup_p, "warm-up probability")

    def probability(self, global_step: int, local_use: int) -> float:
        """Taken probability at ``global_step`` for the ``local_use``-th use.

        ``local_use`` is 0-based: the first execution of the branch passes 0.
        """
        if local_use < self.warmup_uses:
            return self.warmup_p
        for phase in self.phases:
            if global_step < phase.until:
                return phase.p
        return self.phases[-1].p  # pragma: no cover - inf phase catches all

    @property
    def steady_p(self) -> float:
        """Probability of the final (steady-state) phase."""
        return self.phases[-1].p


# ---------------------------------------------------------------------------
# Constructors — the vocabulary workload characters are written in.
# ---------------------------------------------------------------------------

def steady(p: float) -> BranchBehavior:
    """A branch with a constant taken probability."""
    return BranchBehavior(phases=(Phase(math.inf, _check_probability(p, "p")),))


def phased(schedule: Sequence[Tuple[float, float]],
           total_steps: int) -> BranchBehavior:
    """A branch whose probability changes with program phases.

    Args:
        schedule: ``(fraction_of_run, p)`` pairs; fractions must sum to 1.
            E.g. ``[(0.3, 0.9), (0.7, 0.2)]`` = taken 90% for the first 30%
            of the run, 20% afterwards.
        total_steps: the nominal run length the fractions refer to.
    """
    if not schedule:
        raise ValueError("empty phase schedule")
    total_fraction = sum(f for f, _ in schedule)
    if abs(total_fraction - 1.0) > 1e-9:
        raise ValueError(f"phase fractions sum to {total_fraction}, not 1")
    phases: List[Phase] = []
    acc = 0.0
    for i, (fraction, p) in enumerate(schedule):
        acc += fraction
        until = math.inf if i == len(schedule) - 1 else acc * total_steps
        phases.append(Phase(until, p))
    return BranchBehavior(phases=tuple(phases))


def warmup(uses: int, p_init: float, p_steady: float) -> BranchBehavior:
    """A branch that behaves differently for its first ``uses`` executions."""
    return BranchBehavior(phases=(Phase(math.inf, p_steady),),
                          warmup_uses=uses, warmup_p=p_init)


def drifting(p_start: float, p_end: float, total_steps: int,
             segments: int = 8) -> BranchBehavior:
    """A branch whose probability drifts linearly over the run.

    Approximated by ``segments`` piecewise-constant phases (the walker needs
    piecewise-constant schedules to stay fast).
    """
    if segments < 1:
        raise ValueError("need at least one segment")
    phases: List[Phase] = []
    for i in range(segments):
        mid = (i + 0.5) / segments
        p = p_start + (p_end - p_start) * mid
        until = math.inf if i == segments - 1 else \
            (i + 1) / segments * total_steps
        phases.append(Phase(until, _check_probability(p, "drift p")))
    return BranchBehavior(phases=tuple(phases))


def loopback_for_trip_count(trip_count: float) -> float:
    """Loop-back probability of a loop with mean trip count ``trip_count``.

    Implements the paper's ``LP = (T-1)/T`` relation (§4.3, citing [20]).
    """
    if trip_count < 1:
        raise ValueError("trip count must be at least 1")
    return (trip_count - 1.0) / trip_count


@dataclass
class ProgramBehavior:
    """Behaviour of every branch in one benchmark under one input.

    Branches not present in ``branches`` default to ``steady(default_p)``.
    """

    branches: Dict[int, BranchBehavior] = field(default_factory=dict)
    default_p: float = 0.5

    def behavior_of(self, node: int) -> BranchBehavior:
        """Behaviour of branch ``node`` (creating the default lazily)."""
        behavior = self.branches.get(node)
        if behavior is None:
            behavior = steady(self.default_p)
            self.branches[node] = behavior
        return behavior

    def set(self, node: int, behavior: BranchBehavior) -> None:
        """Assign ``behavior`` to branch ``node``."""
        self.branches[node] = behavior
