"""Weighted-SD metric tests, including the paper's own arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WeightedPair, weighted_sd


def test_paper_figure5_bp_value():
    pairs = [
        WeightedPair(0.88, 0.65, 1000),
        WeightedPair(0.977, 0.90, 44000),
        WeightedPair(0.88, 0.70, 43000),
        WeightedPair(0.88, 0.20, 6000),
        WeightedPair(0.5, 0.5, 1000),
        WeightedPair(0.5, 0.5, 6000),
    ]
    assert weighted_sd(pairs) == pytest.approx(0.21, abs=0.005)


def test_paper_figure5_lp_value():
    # NOTE: the paper prints sqrt(0.076)=0.27 here, but its own inputs
    # under its own SS2.3 formula give sqrt(0.102)=0.319 — the printed
    # radicand does not follow from the printed terms.  We assert the
    # formula's actual value (see EXPERIMENTS.md, "Figure 5").
    pairs = [
        WeightedPair(0.977 * 0.88, 0.90 * 0.70, 44000),
        WeightedPair(0.12, 0.80, 6000),
    ]
    assert weighted_sd(pairs) == pytest.approx(0.319, abs=0.005)


def test_identical_profiles_have_zero_sd():
    pairs = [WeightedPair(p, p, w) for p, w in [(0.1, 5), (0.9, 100)]]
    assert weighted_sd(pairs) == 0.0


def test_empty_comparison_returns_none():
    assert weighted_sd([]) is None
    assert weighted_sd([WeightedPair(0.5, 0.1, 0.0)]) is None


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        weighted_sd([WeightedPair(0.5, 0.5, -1.0)])


def test_single_pair():
    assert weighted_sd([WeightedPair(0.8, 0.5, 10)]) == pytest.approx(0.3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1),
                          st.floats(0.01, 100)),
                min_size=1, max_size=20))
def test_sd_invariants(raw):
    pairs = [WeightedPair(p, a, w) for p, a, w in raw]
    sd = weighted_sd(pairs)
    assert sd is not None
    # bounded by the largest difference
    assert 0.0 <= sd <= max(abs(p.predicted - p.average)
                            for p in pairs) + 1e-12
    # invariant under uniform weight scaling
    scaled = [WeightedPair(p.predicted, p.average, p.weight * 37.5)
              for p in pairs]
    assert weighted_sd(scaled) == pytest.approx(sd, rel=1e-9)
    # symmetric in (predicted, average)
    flipped = [WeightedPair(p.average, p.predicted, p.weight)
               for p in pairs]
    assert weighted_sd(flipped) == pytest.approx(sd, rel=1e-9)

