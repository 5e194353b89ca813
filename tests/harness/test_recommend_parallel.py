"""Tests for the §10.4 decision tree and the parallel-speedup model."""

import pytest

from repro.harness.parallel import PhaseProfile, projected_time, speedup_curve
from repro.harness.recommend import Recommendation, recommend_method


class TestDecisionTree:
    def test_minibatch_always_mc(self):
        for depth in (1, 3, 10):
            rec = recommend_method(batch_size=20, hidden_layers=depth)
            assert rec.method == "mc"
            assert "minibatch" in rec.reason

    def test_stochastic_shallow_parallel_is_alsh(self):
        rec = recommend_method(1, hidden_layers=3, parallel_hardware=True)
        assert rec.method == "alsh"

    def test_boundary_depth_four_still_alsh(self):
        """The paper's tree reads 'Shallow (<=4)'."""
        assert recommend_method(1, 4, parallel_hardware=True).method == "alsh"
        assert recommend_method(1, 5, parallel_hardware=True).method == "standard"

    def test_stochastic_shallow_sequential_is_standard(self):
        rec = recommend_method(1, 2, parallel_hardware=False)
        assert rec.method == "standard"
        assert "Table 3" in rec.reason

    def test_stochastic_deep_is_standard_open_problem(self):
        rec = recommend_method(1, 7, parallel_hardware=True)
        assert rec.method == "standard"
        assert "open research" in rec.reason

    def test_validation(self):
        with pytest.raises(ValueError):
            recommend_method(0, 3)
        with pytest.raises(ValueError):
            recommend_method(1, -1)

    def test_recommendation_is_frozen(self):
        rec = recommend_method(20, 3)
        with pytest.raises(Exception):
            rec.method = "dropout"


class TestPhaseProfile:
    def test_serial_phase_never_speeds_up(self):
        phase = PhaseProfile("serial", share=1.0, parallel_fraction=0.0)
        assert phase.time_at(64) == phase.time_at(1)

    def test_fully_parallel_phase_scales_linearly(self):
        phase = PhaseProfile("par", share=1.0, parallel_fraction=1.0)
        assert phase.time_at(8) == pytest.approx(1.0 / 8)

    def test_scaling_limit_caps(self):
        phase = PhaseProfile("lim", 1.0, 1.0, scaling_limit=4)
        assert phase.time_at(64) == phase.time_at(4)

    def test_invalid_processors(self):
        with pytest.raises(ValueError):
            PhaseProfile("x", 1.0, 0.5).time_at(0)


class TestProjectedTime:
    def test_monotone_in_processors(self):
        times = [projected_time(10.0, p) for p in (1, 2, 4, 16, 64)]
        assert times == sorted(times, reverse=True)

    def test_single_core_identity(self):
        assert projected_time(7.5, 1) == pytest.approx(7.5)

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            projected_time(1.0, 2, [PhaseProfile("a", 0.5, 0.5)])

    def test_invalid_time(self):
        with pytest.raises(ValueError):
            projected_time(0.0, 2)

    def test_paper_scaling_regime(self):
        """With the paper's phase mix, 64 cores give a large speedup but
        Amdahl's serial remainder caps it well below 64x."""
        curve = speedup_curve([1, 4, 16, 64])
        assert curve[1] == pytest.approx(1.0)
        assert 3.0 < curve[4] < 4.0
        assert curve[64] > 6.0
        assert curve[64] < 64.0
        # Diminishing returns: marginal gain shrinks.
        assert curve[64] / curve[16] < curve[16] / curve[4]
