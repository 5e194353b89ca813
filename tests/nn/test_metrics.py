"""Unit and property tests for repro.nn.metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.metrics import (
    accuracy,
    confusion_matrix,
    distinct_predictions,
    prediction_distribution,
    prediction_entropy,
)


class TestAccuracy:
    def test_perfect(self):
        y = np.array([0, 1, 2])
        assert accuracy(y, y) == 1.0

    def test_half(self):
        assert accuracy([0, 1, 0, 1], [0, 1, 1, 0]) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0])

    def test_empty(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestConfusionMatrix:
    def test_diagonal_for_perfect(self):
        y = np.array([0, 1, 2, 1])
        cm = confusion_matrix(y, y, 3)
        np.testing.assert_array_equal(cm, np.diag([1, 2, 1]))

    def test_rows_are_true_labels(self):
        cm = confusion_matrix([0, 0], [1, 1], 2)
        assert cm[0, 1] == 2
        assert cm[1, 0] == 0

    def test_total_mass(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 4, 50)
        y_pred = rng.integers(0, 4, 50)
        assert confusion_matrix(y_true, y_pred, 4).sum() == 50

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 5], [0, 1], 3)

    def test_negative_label(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, -1], [0, 1], 3)

    @settings(max_examples=30)
    @given(st.integers(2, 6), st.integers(1, 40), st.integers(0, 10**6))
    def test_row_sums_equal_class_counts(self, n_classes, n, seed):
        rng = np.random.default_rng(seed)
        y_true = rng.integers(0, n_classes, n)
        y_pred = rng.integers(0, n_classes, n)
        cm = confusion_matrix(y_true, y_pred, n_classes)
        np.testing.assert_array_equal(
            cm.sum(axis=1), np.bincount(y_true, minlength=n_classes)
        )
        np.testing.assert_array_equal(
            cm.sum(axis=0), np.bincount(y_pred, minlength=n_classes)
        )


class TestCollapseDiagnostics:
    def test_uniform_predictions_max_entropy(self):
        preds = np.arange(10).repeat(5)
        assert prediction_entropy(preds, 10) == pytest.approx(np.log(10))

    def test_constant_predictions_zero_entropy(self):
        assert prediction_entropy(np.zeros(50, dtype=int), 10) == 0.0

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(1)
        p = prediction_distribution(rng.integers(0, 5, 100), 5)
        assert p.sum() == pytest.approx(1.0)

    def test_distinct_predictions(self):
        assert distinct_predictions([1, 1, 3, 3, 3]) == 2

    def test_entropy_monotone_in_collapse(self):
        """More collapsed prediction sets must have lower entropy."""
        healthy = np.arange(10).repeat(10)
        collapsed = np.array([0] * 80 + [1] * 20)
        assert prediction_entropy(collapsed, 10) < prediction_entropy(healthy, 10)

    @settings(max_examples=30)
    @given(st.integers(2, 8), st.integers(1, 60), st.integers(0, 10**6))
    def test_entropy_bounds(self, n_classes, n, seed):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, n_classes, n)
        e = prediction_entropy(preds, n_classes)
        assert 0.0 <= e <= np.log(n_classes) + 1e-12

