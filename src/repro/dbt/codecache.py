"""Code-cache bookkeeping: which blocks run optimised, from when, and
which control-flow edges stay inside optimised regions.

The performance model (paper §4.4) needs exactly three facts per block:

* from which global step it executes as optimised code;
* whether a dynamic edge out of it stays on an optimised region path
  (cheap) or side-exits back to the dispatcher (penalty);
* how much translation work its optimisation cost.

:class:`TranslationMap` distils a finished DBT run (live or replay) into
those facts at original-block granularity.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Set, Tuple

import numpy as np

from ..profiles.model import Region


class TranslationMap:
    """Block-level summary of the code cache after a run.

    Attributes:
        num_blocks: size of the block id space.
        optimized_at: per block, the global step from which it runs as
            optimised code (``inf`` when never optimised).
        internal_pairs: set of (src, dst) original-block edges covered by
            some region's internal or back edges.
    """

    def __init__(self, num_blocks: int, regions: Iterable[Region],
                 freeze_step: Mapping[int, int]):
        self.num_blocks = num_blocks
        self.optimized_at = np.full(num_blocks, np.inf)
        for block, step in freeze_step.items():
            self.optimized_at[block] = step
        self.internal_pairs: Set[Tuple[int, int]] = set()
        #: blocks whose region exit is the *planned* continuation (region
        #: tails) — leaving through them is not a side exit.
        self.tail_blocks: Set[int] = set()
        #: original block ids translated, duplicates counted once per copy.
        self.translated_blocks: List[int] = []
        self.blocks_translated = 0
        self.regions_formed = 0
        for region in regions:
            self.regions_formed += 1
            self.blocks_translated += region.num_instances
            members = region.members
            self.translated_blocks.extend(members)
            self.tail_blocks.add(members[region.tail])
            for src, dst, _ in region.internal_edges:
                self.internal_pairs.add((members[src], members[dst]))
            for src, _ in region.back_edges:
                self.internal_pairs.add((members[src], members[0]))

    def internal_pair_codes(self) -> np.ndarray:
        """Internal edges encoded as ``src * num_blocks + dst`` (sorted)."""
        if not self.internal_pairs:
            return np.empty(0, dtype=np.int64)
        codes = np.fromiter(
            (s * self.num_blocks + d for s, d in self.internal_pairs),
            dtype=np.int64, count=len(self.internal_pairs))
        codes.sort()
        return codes

    def instructions_translated(self, block_sizes) -> float:
        """Guest instructions retranslated by the optimiser, duplicates
        counted once per region copy (translation work is per copy)."""
        return float(sum(block_sizes[b] for b in self.translated_blocks))


def translation_map_from_replay(replay) -> TranslationMap:
    """Build a :class:`TranslationMap` from a finished
    :class:`~repro.dbt.replay.ReplayDBT` (or live translator exposing the
    same ``regions``/``freeze_step`` attributes)."""
    freeze = getattr(replay, "freeze_step", None)
    if freeze is None:  # live translator stores freezes in the counter table
        freeze = replay.counters.frozen_at
    return TranslationMap(replay.cfg.num_nodes, replay.regions, freeze)
