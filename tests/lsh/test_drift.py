"""Tests for drift-aware hash-table maintenance."""

import numpy as np
import pytest

from repro.lsh.drift import ColumnDriftTracker


class TestValidation:
    def test_requires_2d(self, rng):
        with pytest.raises(ValueError):
            ColumnDriftTracker(rng.normal(size=5))

    def test_negative_threshold(self, rng):
        with pytest.raises(ValueError):
            ColumnDriftTracker(rng.normal(size=(3, 3)), rel_threshold=-0.1)


class TestDrift:
    def test_unchanged_columns_zero_drift(self, rng):
        w = rng.normal(size=(6, 8))
        tracker = ColumnDriftTracker(w)
        np.testing.assert_allclose(tracker.drift(w, np.arange(8)), 0.0)

    def test_drift_value(self, rng):
        w = rng.normal(size=(4, 3))
        tracker = ColumnDriftTracker(w)
        moved = w.copy()
        moved[:, 1] *= 2.0  # delta = ||w_1||, ref = ||w_1|| -> drift 1.0
        drift = tracker.drift(moved, np.array([0, 1, 2]))
        assert drift[0] == 0.0
        assert drift[1] == pytest.approx(1.0)
        assert drift[2] == 0.0

    def test_zero_reference_infinite_drift_when_moved(self):
        w = np.zeros((3, 2))
        tracker = ColumnDriftTracker(w)
        moved = w.copy()
        moved[:, 0] = 1.0
        drift = tracker.drift(moved, np.array([0, 1]))
        assert drift[0] == np.inf
        assert drift[1] == 0.0

    def test_snapshot_is_independent(self, rng):
        w = rng.normal(size=(4, 4))
        tracker = ColumnDriftTracker(w)
        w[:, 0] += 10.0  # mutate in place — tracker must not follow
        assert tracker.drift(w, np.array([0]))[0] > 0

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_snapshot_keeps_the_weights_layout(self, rng, order):
        w = np.asarray(rng.normal(size=(4, 5)), order=order)
        tracker = ColumnDriftTracker(w)
        assert tracker.reference.flags[f"{order}_CONTIGUOUS"]
        # A checkpoint may store either layout; the snapshot keeps its own.
        other = "F" if order == "C" else "C"
        restored = np.asarray(2.0 * w, order=other)
        tracker.restore_reference(restored)
        assert tracker.reference.flags[f"{order}_CONTIGUOUS"]
        np.testing.assert_array_equal(tracker.reference, restored)
        assert not np.shares_memory(tracker.reference, restored)


class TestDrifted:
    def test_threshold_filters(self, rng):
        w = rng.normal(size=(5, 6))
        tracker = ColumnDriftTracker(w, rel_threshold=0.5)
        moved = w.copy()
        moved[:, 2] *= 3.0  # drift 2.0 > 0.5
        moved[:, 4] *= 1.01  # drift 0.01 < 0.5
        out = tracker.drifted(moved, np.array([2, 4]))
        np.testing.assert_array_equal(out, [2])

    def test_zero_threshold_selects_all(self, rng):
        w = rng.normal(size=(5, 6))
        tracker = ColumnDriftTracker(w, rel_threshold=0.0)
        cols = np.array([1, 3])
        np.testing.assert_array_equal(tracker.drifted(w, cols), cols)

    def test_empty_cols(self, rng):
        tracker = ColumnDriftTracker(rng.normal(size=(3, 3)))
        assert tracker.drifted(rng.normal(size=(3, 3)), np.array([], dtype=int)).size == 0

    def test_mark_rehashed_resets(self, rng):
        w = rng.normal(size=(4, 4))
        tracker = ColumnDriftTracker(w, rel_threshold=0.1)
        moved = w.copy()
        moved[:, 0] *= 2.0
        assert tracker.drifted(moved, np.array([0])).size == 1
        tracker.mark_rehashed(moved, np.array([0]))
        assert tracker.drifted(moved, np.array([0])).size == 0


class TestTrainerIntegration:
    def test_drift_threshold_reduces_maintenance(self, rng):
        """With a drift threshold, fewer columns are re-hashed for the same
        training trace — the extension's point."""
        from repro.core.alsh_approx import ALSHApproxTrainer
        from repro.lsh.rebuild import RebuildScheduler
        from repro.nn.network import MLP

        x = rng.normal(size=(60, 16))
        y = rng.integers(0, 4, 60)

        def rehashed(threshold):
            net = MLP([16, 40, 4], seed=0)
            trainer = ALSHApproxTrainer(
                net, lr=1e-4, seed=1,
                rebuild=RebuildScheduler(10, 10, 0),
                drift_threshold=threshold,
            )
            trainer.train_batch(x, y)
            return trainer.rehashed_columns

        # A generous threshold with a tiny lr filters almost everything.
        assert rehashed(10.0) < rehashed(None)

    def test_none_threshold_is_paper_behaviour(self, rng):
        from repro.core.alsh_approx import ALSHApproxTrainer
        from repro.nn.network import MLP

        net = MLP([16, 30, 4], seed=0)
        trainer = ALSHApproxTrainer(net, seed=1)
        assert trainer._drift is None
