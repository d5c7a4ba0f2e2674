"""The paper's worked example (Figures 1–5): the Mcf nested loop.

Section 3 of the paper walks one concrete example — a nested loop from
``price_out_impl`` of Mcf whose shared block ``b2`` is duplicated into
three copies — and computes by hand::

    Sd.BP(T) = sqrt(0.045) = 0.21
    Sd.CP(T) = 0
    Sd.LP(T) = sqrt(0.076) = 0.27   (printed; see note below)

Note on Sd.LP: the paper's printed terms — (0.977*0.88 - 0.90*0.70)^2 *
44000 plus (0.12 - 0.80)^2 * 6000 over 50000 — evaluate to sqrt(0.102) =
0.319, not the printed sqrt(0.076) = 0.27; the Figure 5 radicand does not
follow from its own inputs.  This reproduction computes the formula
faithfully and therefore asserts 0.319.

This module rebuilds that example with the library's own data structures
and reproduces the arithmetic, serving both as a cross-check of the metric
implementations against the paper's printed numbers and as a compact
structural test of region duplication, completion and loop-back
propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.metrics import WeightedPair, weighted_sd
from ..profiles.model import EdgeKind, Region, RegionKind


@dataclass
class PaperExample:
    """The Figure 5 quantities, as computed by the library."""

    sd_bp: float
    sd_cp: float
    sd_lp: float


def figure5_pairs() -> Dict[str, List[WeightedPair]]:
    """The paper's Figure 5 comparison pairs, verbatim.

    Branch probabilities: four compared copies with INIP predictions
    (.88/.977/.88/.88), NAVEP averages (.65/.90/.70/.20) and propagated
    weights (1000/44000/43000/6000); two further copies carry weight
    (1000 and 6000) with identical predictions (zero terms the paper's
    printout omits from the numerator but keeps in the denominator).

    Loop-back probabilities: the two loop regions — the paper computes
    LT as the path product (.977 × .88) for the first and reads .12 for
    the second, against NAVEP values .90 × .70 and .80.
    """
    bp_pairs = [
        WeightedPair(predicted=0.88, average=0.65, weight=1000),
        WeightedPair(predicted=0.977, average=0.90, weight=44000),
        WeightedPair(predicted=0.88, average=0.70, weight=43000),
        WeightedPair(predicted=0.88, average=0.20, weight=6000),
        # zero-difference copies kept in the denominator:
        WeightedPair(predicted=0.5, average=0.5, weight=1000),
        WeightedPair(predicted=0.5, average=0.5, weight=6000),
    ]
    cp_pairs = [
        WeightedPair(predicted=1.0, average=1.0, weight=1000),
    ]
    lp_pairs = [
        WeightedPair(predicted=0.977 * 0.88, average=0.90 * 0.70,
                     weight=44000),
        WeightedPair(predicted=0.12, average=0.80, weight=6000),
    ]
    return {"bp": bp_pairs, "cp": cp_pairs, "lp": lp_pairs}


def compute_example() -> PaperExample:
    """Reproduce Figure 5's three standard deviations."""
    pairs = figure5_pairs()
    sd_bp = weighted_sd(pairs["bp"])
    sd_cp = weighted_sd(pairs["cp"])
    sd_lp = weighted_sd(pairs["lp"])
    assert sd_bp is not None and sd_cp is not None and sd_lp is not None
    return PaperExample(sd_bp=sd_bp, sd_cp=sd_cp, sd_lp=sd_lp)


def mcf_loop_regions() -> List[Region]:
    """Structural version of the example's regions (Figure 2a).

    Blocks: 1=b1, 2=b2, 3=b3, 4=b4.  The non-loop region holds b1 plus a
    copy of b2; each of the two loops holds its own copy of b2 (the inner
    loop b4→b2, and the outer loop path b3→b2).
    """
    non_loop = Region(
        region_id=0, kind=RegionKind.LINEAR, members=[1, 2],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        exit_edges=[(0, EdgeKind.FALL, 4), (1, EdgeKind.TAKEN, 4),
                    (1, EdgeKind.FALL, 3)],
        tail=1)
    inner_loop = Region(
        region_id=1, kind=RegionKind.LOOP, members=[4, 2],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        back_edges=[(1, EdgeKind.TAKEN)],
        exit_edges=[(0, EdgeKind.FALL, 3), (1, EdgeKind.FALL, 3)],
        tail=1)
    outer_loop = Region(
        region_id=2, kind=RegionKind.LOOP, members=[3, 2],
        internal_edges=[(0, 1, EdgeKind.TAKEN)],
        back_edges=[(1, EdgeKind.FALL)],
        exit_edges=[(0, EdgeKind.FALL, 0), (1, EdgeKind.TAKEN, 4)],
        tail=1)
    return [non_loop, inner_loop, outer_loop]

