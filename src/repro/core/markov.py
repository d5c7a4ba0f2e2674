"""Markov frequency recovery for duplicated blocks (paper §3.1, [18]).

Given the duplicated graph of an INIP snapshot and the AVEP profile, this
module assigns every *copy* a frequency:

* copies of non-duplicated blocks are pinned to the block's AVEP use count
  (the "constant coefficients" of the paper's linear system);
* copies of duplicated blocks — region instances and the residual original
  nodes — are unknowns, related by the flow equations whose edge
  probabilities come from the AVEP branch probabilities.

The result is NAVEP: the average profile re-expressed on INIP's graph, with
per-copy weights that sum (by flow conservation) to the original block's
AVEP frequency.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..obs.registry import inc, observe
from ..profiles.model import ProfileSnapshot
from .normalize import DuplicatedGraph


class NormalizedProfile:
    """NAVEP: AVEP normalised onto the duplicated graph.

    Attributes:
        graph: the duplicated graph the frequencies live on.
        frequencies: per-copy frequency array (indexable by node index).
        negative_mass: per-copy mass the solve put below zero and the
            clip removed from ``frequencies`` (all zeros when the raw
            least-squares solution was non-negative).
    """

    _drift: Optional[Tuple[ProfileSnapshot, Dict[int, float]]]

    def __init__(self, graph: DuplicatedGraph, frequencies: np.ndarray,
                 negative_mass: np.ndarray):
        self.graph = graph
        self.frequencies = frequencies
        self.negative_mass = negative_mass

    @property
    def frequencies(self) -> np.ndarray:
        """Per-copy frequency array (indexable by node index)."""
        return self._frequencies

    @frequencies.setter
    def frequencies(self, value: np.ndarray) -> None:
        self._frequencies = value
        self._drift = None  # recomputed for the new array on next read

    def conservation_drift(self, avep: ProfileSnapshot) -> Dict[int, float]:
        """Relative conservation drift of every duplicated block.

        ``|block_total(b) - use(b)| / max(use(b), 1)`` against ``avep``'s
        use count: how far the solve strays from the invariant that a
        block's copies sum to its AVEP frequency.  Computed once per
        ``frequencies`` array and AVEP; :func:`normalize_avep` records
        the worst of it and the verifier reads it back.
        """
        if self._drift is None or self._drift[0] is not avep:
            drift = {}
            for block in sorted(self.graph.duplicated_blocks()):
                expected = float(avep.block_frequency(block))
                drift[block] = (abs(self.block_total(block) - expected) /
                                max(expected, 1.0))
            self._drift = (avep, drift)
        return self._drift[1]

    def block_total(self, block_id: int) -> float:
        """Summed frequency of every copy of ``block_id``.

        By flow conservation this approximates the block's AVEP use count
        (exactly, when no region entry is itself duplicated — the paper's
        §3.3 approximation note).
        """
        return float(sum(self.frequencies[i]
                         for i in self.graph.copies_of(block_id)))

    def block_negative_mass(self, block_id: int) -> float:
        """Negative mass the clip removed from ``block_id``'s copies."""
        return float(sum(self.negative_mass[i]
                         for i in self.graph.copies_of(block_id)))


def _avep_branch_probability(avep: ProfileSnapshot,
                             block_id: int) -> Optional[float]:
    return avep.branch_probability(block_id)


def normalize_avep(graph: DuplicatedGraph,
                   avep: ProfileSnapshot) -> NormalizedProfile:
    """Solve the flow system and return NAVEP.

    Every copy of block ``b`` gets ``b``'s AVEP branch probability.  Copy
    frequencies of duplicated blocks are recovered from two families of
    equations, solved jointly by least squares:

    * the Markov flow equations (frequency = probability-weighted inflow),
      with non-duplicated blocks' AVEP frequencies as constants;
    * the paper's conservation invariant — the copies of block ``b`` sum
      to ``b``'s AVEP frequency.

    The conservation rows keep the system well-posed even when an entire
    hot cycle is duplicated (a pure flow formulation is singular there:
    a probability-~1 cycle of unknowns has no anchoring inflow).
    """
    duplicated = graph.duplicated_blocks()

    # Edge probabilities on the duplicated graph from AVEP BPs (every
    # copy of a block shares the block's BP, so each is looked up once).
    bp_of: Dict[int, Optional[float]] = {}
    edge_prob: Dict[Tuple[int, int], float] = {}
    for src, dst, kind in graph.edges:
        block = graph.nodes[src].block_id
        if block not in bp_of:
            bp_of[block] = _avep_branch_probability(avep, block)
        p = kind.probability(bp_of[block])
        if p:
            key = (src, dst)
            edge_prob[key] = edge_prob.get(key, 0.0) + p

    known: Dict[int, float] = {}
    for idx, ref in enumerate(graph.nodes):
        if not ref.is_instance and ref.block_id not in duplicated:
            known[idx] = float(avep.block_frequency(ref.block_id))

    inflow: Dict[int, float] = {}
    entry = graph.entry_node()
    if entry not in known:
        # The program's single external entry lands on an unknown copy.
        inflow[entry] = 1.0

    unknown = [v for v in range(graph.num_nodes) if v not in known]
    index = {v: i for i, v in enumerate(unknown)}
    m = len(unknown)
    result = np.zeros(graph.num_nodes)
    for v, f in known.items():
        result[v] = f
    if m == 0:
        return NormalizedProfile(graph, result, np.zeros_like(result))

    # Flow rows: f_u - sum p_vu f_v = inflow_u + sum p_vu F_v (v known).
    flow = np.eye(m)
    flow_rhs = np.zeros(m)
    for v in unknown:
        flow_rhs[index[v]] += float(inflow.get(v, 0.0))
    for (src, dst), p in edge_prob.items():
        if dst not in index:
            continue
        i = index[dst]
        if src in index:
            flow[i, index[src]] -= p
        else:
            flow_rhs[i] += p * known[src]

    # Conservation rows: copies of block b sum to b's AVEP frequency.
    # Scale each row to the flow rows' O(1) coefficient magnitude so the
    # least-squares blend weights both families comparably.
    cons_rows = []
    cons_rhs = []
    for block in sorted(duplicated):
        copies = [c for c in graph.copies_of(block) if c in index]
        if not copies:
            continue
        total = float(avep.block_frequency(block))
        row = np.zeros(m)
        scale = 1.0 / max(total, 1.0)
        for c in copies:
            row[index[c]] = scale
        fixed = sum(known.get(c, 0.0) for c in graph.copies_of(block)
                    if c not in index)
        cons_rows.append(row)
        cons_rhs.append((total - fixed) * scale)

    if cons_rows:
        a = np.vstack([flow] + [np.asarray(cons_rows)])
        rhs = np.concatenate([flow_rhs, np.asarray(cons_rhs)])
    else:
        a = flow
        rhs = flow_rhs
    x, _, rank, _ = np.linalg.lstsq(a, rhs, rcond=None)
    # Report the solve's health: how far the blend of flow and
    # conservation rows is from exact, and whether it pinned x at all.
    observe("navep.residual_norm", float(np.linalg.norm(a @ x - rhs)))
    observe("navep.rank_deficit", m - int(rank))
    if rank < m:
        inc("navep.rank_deficient")
    for v, i in index.items():
        result[v] = float(x[i])
    # Numerical noise can leave tiny negative frequencies on dead copies;
    # keep what the clip hides so the solver's health stays visible (the
    # verifier judges the raw solution from ``negative_mass``).
    negative = result < 0.0
    negative_mass = np.where(negative, -result, 0.0)
    if negative.any():
        inc("navep.clipped_copies", int(negative.sum()))
    observe("navep.clipped_negative_mass",
            float(negative_mass[negative].sum()))
    np.clip(result, 0.0, None, out=result)
    navep = NormalizedProfile(graph, result, negative_mass)
    observe("navep.conservation_drift",
            max(navep.conservation_drift(avep).values(), default=0.0))
    return navep
