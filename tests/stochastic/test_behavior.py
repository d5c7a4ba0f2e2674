"""Branch-behaviour model tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stochastic import (BranchBehavior, Phase, ProgramBehavior,
                              drifting, loopback_for_trip_count, phased,
                              steady, warmup)


class TestConstruction:
    def test_steady(self):
        b = steady(0.25)
        assert b.steady_p == 0.25
        assert b.probability(0, 0) == 0.25
        assert b.probability(10**9, 10**6) == 0.25

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            Phase(until=-1, p=0.5)
        with pytest.raises(ValueError):
            Phase(until=10, p=1.5)

    def test_behavior_requires_infinite_final_phase(self):
        with pytest.raises(ValueError, match="infinity"):
            BranchBehavior(phases=(Phase(100, 0.5),))

    def test_behavior_requires_increasing_phases(self):
        with pytest.raises(ValueError, match="increasing"):
            BranchBehavior(phases=(Phase(100, 0.5), Phase(50, 0.2),
                                   Phase(math.inf, 0.3)))

    def test_empty_phases_rejected(self):
        with pytest.raises(ValueError):
            BranchBehavior(phases=())

    def test_phased_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            phased([(0.5, 0.9), (0.4, 0.1)], 1000)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            BranchBehavior(phases=(Phase(math.inf, 0.5),), warmup_uses=-1)


class TestSchedules:
    def test_phased_lookup(self):
        b = phased([(0.3, 0.9), (0.7, 0.2)], total_steps=1000)
        assert b.probability(0, 100) == 0.9
        assert b.probability(299, 100) == 0.9
        assert b.probability(300, 100) == 0.2
        assert b.probability(999_999, 100) == 0.2

    def test_warmup_uses_local_clock(self):
        b = warmup(5, p_init=0.1, p_steady=0.9)
        assert b.probability(10**6, 0) == 0.1    # first use, late in run
        assert b.probability(10**6, 4) == 0.1
        assert b.probability(0, 5) == 0.9        # sixth use, early in run

    def test_drifting_is_monotonic(self):
        b = drifting(0.2, 0.8, total_steps=800, segments=8)
        probs = [b.probability(s, 10**6) for s in range(0, 800, 100)]
        assert probs == sorted(probs)
        assert probs[0] < 0.3 and probs[-1] > 0.7

    def test_drifting_validation(self):
        with pytest.raises(ValueError):
            drifting(0.2, 0.8, 100, segments=0)


class TestTripCountRelation:
    def test_known_values(self):
        assert loopback_for_trip_count(1) == 0.0
        assert loopback_for_trip_count(10) == pytest.approx(0.9)
        assert loopback_for_trip_count(50) == pytest.approx(0.98)

    def test_trip_count_below_one_rejected(self):
        with pytest.raises(ValueError):
            loopback_for_trip_count(0.5)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1.0, 10_000.0))
    def test_roundtrip(self, trip_count):
        lp = loopback_for_trip_count(trip_count)
        assert 0.0 <= lp < 1.0
        # The mean of a geometric trip count: 1 / (1 - LP).
        assert 1.0 / (1.0 - lp) == pytest.approx(trip_count, rel=1e-9)


class TestProgramBehavior:
    def test_default_created_lazily(self):
        pb = ProgramBehavior(default_p=0.3)
        assert pb.behavior_of(7).steady_p == 0.3
        assert 7 in pb.branches

    def test_set_and_steady_probabilities(self):
        pb = ProgramBehavior()
        pb.set(1, steady(0.8))
        pb.set(2, phased([(0.5, 0.2), (0.5, 0.6)], 100))
        assert {node: b.steady_p for node, b in pb.branches.items()} == {
            1: 0.8, 2: 0.6}
