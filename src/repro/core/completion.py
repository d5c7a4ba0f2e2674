"""Completion probability of non-loop regions (paper §2.2 / §3.2).

The completion probability (CP) of a region is the likelihood that an
execution entering at the region entry reaches the region's last block
without leaving through a side exit.  Computed by assuming the entry has
frequency 1 and propagating frequencies through the region's internal DAG
(the paper's Figure 6 procedure); the tail block's frequency is the CP.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..cfg.traversal import topological_order
from ..profiles.model import Region, RegionKind

#: Maps a block id to its branch probability (None = unprofiled).
BranchProbabilityFn = Callable[[int], Optional[float]]


def _internal_frequencies(region: Region,
                          bp_of: BranchProbabilityFn) -> List[float]:
    """Entry-relative frequency of every instance (entry = 1.0)."""
    n = region.num_instances
    succs: List[List[int]] = [[] for _ in range(n)]
    weighted: Dict[int, List] = {}
    for src, dst, kind in region.internal_edges:
        succs[src].append(dst)
        weighted.setdefault(src, []).append((dst, kind))

    freq = [0.0] * n
    freq[0] = 1.0
    for inst in topological_order(succs, roots=[0]):
        if freq[inst] == 0.0:
            continue
        bp = bp_of(region.members[inst])
        for dst, kind in weighted.get(inst, ()):
            freq[dst] += freq[inst] * kind.probability(bp)
    return freq


def completion_probability(region: Region,
                           bp_of: BranchProbabilityFn) -> float:
    """CP of a non-loop region under branch probabilities ``bp_of``.

    A region without side exits completes with probability 1 by
    construction; side exits drain frequency before the tail.

    Raises:
        ValueError: for loop regions (use
            :func:`repro.core.loopback.loopback_probability`).
    """
    if region.kind is not RegionKind.LINEAR:
        raise ValueError("completion probability applies to non-loop "
                         "regions only")
    freq = _internal_frequencies(region, bp_of)
    cp = freq[region.tail]
    # Guard against float drift; probabilities live in [0, 1].
    return min(max(cp, 0.0), 1.0)
