"""Markov-model block-frequency propagation (Wagner et al., PLDI'94).

Given a CFG where each two-way branch node ``v`` has a probability
``p_taken(v)`` of taking its first successor, the expected visit frequency
of every node (relative to one entry into the graph) satisfies the linear
flow system::

    freq[v] = inflow[v] + sum_{p in preds(v)} freq[p] * prob(p -> v)

This module builds and solves that system with numpy/scipy — standing in
for the Intel MKL solver the paper's offline analysis tool used.  The same
machinery underlies AVEP→NAVEP normalisation (:mod:`repro.core.markov`),
where known frequencies of non-duplicated blocks become constants and the
duplicated blocks' frequencies are the unknowns.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .graph import ControlFlowGraph

#: Above this node count the solver switches to scipy's sparse LU.
_SPARSE_THRESHOLD = 400


def edge_probabilities(cfg: ControlFlowGraph,
                       taken_prob: Mapping[int, float]) -> Dict[Tuple[int, int], float]:
    """Expand per-branch taken probabilities into per-edge probabilities.

    Non-branch nodes send probability 1 down their single edge; branch
    nodes split ``p`` / ``1-p`` between taken and fall-through.  Parallel
    edges (branch where both targets coincide) accumulate.
    """
    probs: Dict[Tuple[int, int], float] = {}
    for v in range(cfg.num_nodes):
        succ = cfg.successors(v)
        if not succ:
            continue
        if len(succ) == 1:
            probs[(v, succ[0])] = probs.get((v, succ[0]), 0.0) + 1.0
        else:
            p = float(taken_prob.get(v, 0.5))
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"taken probability {p} of node {v} "
                                 "outside [0, 1]")
            probs[(v, succ[0])] = probs.get((v, succ[0]), 0.0) + p
            probs[(v, succ[1])] = probs.get((v, succ[1]), 0.0) + (1.0 - p)
    return probs


def solve_flow(num_nodes: int,
               edge_prob: Mapping[Tuple[int, int], float],
               inflow: Mapping[int, float],
               known: Optional[Mapping[int, float]] = None) -> np.ndarray:
    """Solve the Markov flow system ``f = inflow + P^T f`` for frequencies.

    Args:
        num_nodes: node count; unknowns are all nodes not in ``known``.
        edge_prob: probability mass on each edge (rows may sum to <= 1;
            missing mass leaks out of the system, e.g. at exits).
        inflow: external entry frequency per node (e.g. ``{entry: 1.0}``).
        known: nodes whose frequency is pinned to a measured value; they
            become constants moved to the right-hand side — this is how
            NAVEP normalisation anchors non-duplicated blocks.

    Returns:
        Array of length ``num_nodes`` with every node's frequency (pinned
        values echoed verbatim).

    Raises:
        np.linalg.LinAlgError: if the system is singular, which happens for
            probability-1 cycles with no leak (an actually infinite loop).
    """
    known = dict(known or {})
    unknown = [v for v in range(num_nodes) if v not in known]
    index = {v: i for i, v in enumerate(unknown)}
    m = len(unknown)

    result = np.zeros(num_nodes, dtype=float)
    for v, f in known.items():
        result[v] = f
    if m == 0:
        return result

    # Assemble (I - P^T restricted to unknowns) x = rhs.
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    rhs = np.zeros(m, dtype=float)
    for v in unknown:
        i = index[v]
        rows.append(i)
        cols.append(i)
        vals.append(1.0)
        rhs[i] += float(inflow.get(v, 0.0))
    for (src, dst), p in edge_prob.items():
        if p == 0.0 or dst not in index:
            continue
        i = index[dst]
        if src in index:
            rows.append(i)
            cols.append(index[src])
            vals.append(-p)
        else:
            rhs[i] += p * known[src]

    if m >= _SPARSE_THRESHOLD:
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import spsolve
        a = csr_matrix((vals, (rows, cols)), shape=(m, m))
        x = spsolve(a.tocsc(), rhs)
    else:
        a = np.zeros((m, m), dtype=float)
        for r, c, val in zip(rows, cols, vals):
            a[r, c] += val
        x = np.linalg.solve(a, rhs)

    for v, i in index.items():
        result[v] = float(x[i])
    return result


def propagate_frequencies(cfg: ControlFlowGraph,
                          taken_prob: Mapping[int, float],
                          entry_frequency: float = 1.0) -> np.ndarray:
    """Expected visit frequency of every node per ``entry_frequency`` entries.

    This is the static estimator of Wagner et al.: solve the flow equations
    with the CFG entry receiving ``entry_frequency`` units of external
    inflow.  Exit nodes leak their outflow, keeping the system well posed
    as long as every cycle has an escape probability.
    """
    probs = edge_probabilities(cfg, taken_prob)
    return solve_flow(cfg.num_nodes, probs,
                      inflow={cfg.entry: float(entry_frequency)})
