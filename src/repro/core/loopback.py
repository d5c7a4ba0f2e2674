"""Loop-back probability of loop regions (paper §2.3 / §3.3).

The loop-back probability (LP) is the likelihood that an execution
starting at the loop entry returns to it.  Following the paper's Figure 7
procedure: redirect every back edge to a *dummy node*, give the entry a
frequency of 1, propagate through the (now acyclic) region, and read the
dummy node's frequency.
"""

from __future__ import annotations

from typing import Dict, List

from ..cfg.traversal import topological_order
from ..profiles.model import Region, RegionKind
from .completion import BranchProbabilityFn


def loopback_probability(region: Region,
                         bp_of: BranchProbabilityFn) -> float:
    """LP of a loop region under branch probabilities ``bp_of``.

    ``LP = (tc - 1) / tc`` relates this to the loop's mean trip count
    (see :func:`repro.stochastic.behavior.loopback_for_trip_count`).

    Raises:
        ValueError: for non-loop regions.
    """
    if region.kind is not RegionKind.LOOP:
        raise ValueError("loop-back probability applies to loop regions "
                         "only")
    n = region.num_instances
    dummy = n  # extra node absorbing the redirected back edges
    succs: List[List[int]] = [[] for _ in range(n + 1)]
    weighted: Dict[int, List] = {}
    for src, dst, kind in region.internal_edges:
        succs[src].append(dst)
        weighted.setdefault(src, []).append((dst, kind))
    for src, kind in region.back_edges:
        succs[src].append(dummy)
        weighted.setdefault(src, []).append((dummy, kind))

    freq = [0.0] * (n + 1)
    freq[0] = 1.0
    for inst in topological_order(succs, roots=[0]):
        if inst == dummy or freq[inst] == 0.0:
            continue
        bp = bp_of(region.members[inst])
        for dst, kind in weighted.get(inst, ()):
            freq[dst] += freq[inst] * kind.probability(bp)
    return min(max(freq[dummy], 0.0), 1.0)
