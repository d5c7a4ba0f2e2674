"""The Figure 1–5 worked example must reproduce the paper's numbers."""

import pytest

from repro.core import completion_probability, loopback_probability
from repro.harness import compute_example, figure5_pairs, mcf_loop_regions


def test_figure5_standard_deviations():
    example = compute_example()
    assert example.sd_bp == pytest.approx(0.21, abs=0.005)
    assert example.sd_cp == 0.0
    # The paper prints 0.27 but its own terms give 0.319 (see
    # EXPERIMENTS.md on the Figure 5 inconsistency).
    assert example.sd_lp == pytest.approx(0.319, abs=0.005)


def test_figure5_intermediate_values():
    """The radicands printed in Figure 5: 0.045 and 0.076."""
    example = compute_example()
    assert example.sd_bp ** 2 == pytest.approx(0.045, abs=0.001)
    # printed as 0.076 in the paper; the printed terms give 0.102
    assert example.sd_lp ** 2 == pytest.approx(0.102, abs=0.001)


def test_pairs_have_paper_weights():
    pairs = figure5_pairs()
    assert sum(p.weight for p in pairs["bp"]) == 101_000
    assert sum(p.weight for p in pairs["lp"]) == 50_000


def test_structural_regions_validate():
    for region in mcf_loop_regions():
        region.validate()


def test_inner_loop_path_product():
    # The example's INIP probabilities: the inner loop's loop-back
    # probability is the path product BP(b4) x BP(b2) = .977 x .88.
    inip_bp = {1: 0.88, 2: 0.88, 3: 0.12, 4: 0.977}
    non_loop, inner, _ = mcf_loop_regions()
    assert loopback_probability(inner, inip_bp.get) == \
        pytest.approx(0.977 * 0.88)
    assert completion_probability(non_loop, inip_bp.get) == \
        pytest.approx(0.88)
