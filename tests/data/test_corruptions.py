"""Tests for dataset corruptions."""

import numpy as np
import pytest

from repro.data.corruptions import (
    with_class_imbalance,
    with_dead_features,
    with_label_noise,
)


class TestLabelNoise:
    def test_fraction_flipped(self, tiny_dataset):
        noisy = with_label_noise(tiny_dataset, 0.3, seed=0)
        flipped = (noisy.y_train != tiny_dataset.y_train).mean()
        assert flipped == pytest.approx(0.3, abs=0.02)

    def test_flips_always_change_label(self, tiny_dataset):
        noisy = with_label_noise(tiny_dataset, 1.0, seed=0)
        assert (noisy.y_train != tiny_dataset.y_train).all()

    def test_eval_labels_untouched(self, tiny_dataset):
        noisy = with_label_noise(tiny_dataset, 0.5, seed=0)
        np.testing.assert_array_equal(noisy.y_test, tiny_dataset.y_test)
        np.testing.assert_array_equal(noisy.y_val, tiny_dataset.y_val)

    def test_original_not_mutated(self, tiny_dataset):
        before = tiny_dataset.y_train.copy()
        with_label_noise(tiny_dataset, 0.5, seed=0)
        np.testing.assert_array_equal(tiny_dataset.y_train, before)

    def test_zero_fraction_identity(self, tiny_dataset):
        noisy = with_label_noise(tiny_dataset, 0.0)
        np.testing.assert_array_equal(noisy.y_train, tiny_dataset.y_train)

    def test_deterministic(self, tiny_dataset):
        a = with_label_noise(tiny_dataset, 0.4, seed=5)
        b = with_label_noise(tiny_dataset, 0.4, seed=5)
        np.testing.assert_array_equal(a.y_train, b.y_train)

    def test_invalid_fraction(self, tiny_dataset):
        with pytest.raises(ValueError):
            with_label_noise(tiny_dataset, 1.5)


class TestDeadFeatures:
    def test_same_columns_dead_everywhere(self, tiny_dataset):
        dead = with_dead_features(tiny_dataset, 0.25, seed=0)
        train_dead = np.nonzero(~dead.x_train.any(axis=0))[0]
        test_dead = np.nonzero(~dead.x_test.any(axis=0))[0]
        assert set(train_dead) >= set(test_dead) or set(test_dead) >= set(train_dead)
        expected = int(round(0.25 * tiny_dataset.input_dim))
        assert len(train_dead) >= expected  # dead columns + natural zeros

    def test_fraction_zeroed(self, tiny_dataset):
        dead = with_dead_features(tiny_dataset, 0.5, seed=1)
        changed = (dead.x_train != tiny_dataset.x_train).any(axis=0)
        assert changed.sum() == int(round(0.5 * tiny_dataset.input_dim))

    def test_zero_fraction_identity(self, tiny_dataset):
        dead = with_dead_features(tiny_dataset, 0.0)
        np.testing.assert_array_equal(dead.x_train, tiny_dataset.x_train)


class TestClassImbalance:
    def test_minority_shrunk(self, tiny_dataset):
        skewed = with_class_imbalance(tiny_dataset, 0.2, minority_classes=1, seed=0)
        before = (tiny_dataset.y_train == 0).sum()
        after = (skewed.y_train == 0).sum()
        assert after == max(1, int(round(0.2 * before)))
        # Other classes untouched.
        assert (skewed.y_train == 1).sum() == (tiny_dataset.y_train == 1).sum()

    def test_eval_untouched(self, tiny_dataset):
        skewed = with_class_imbalance(tiny_dataset, 0.3, seed=0)
        assert skewed.n_test == tiny_dataset.n_test

    def test_invalid_args(self, tiny_dataset):
        with pytest.raises(ValueError):
            with_class_imbalance(tiny_dataset, 0.0)
        with pytest.raises(ValueError):
            with_class_imbalance(tiny_dataset, 0.5, minority_classes=99)


class TestTrainingUnderCorruption:
    def test_label_noise_hurts_standard_training(self, tiny_dataset):
        from repro.core.standard import StandardTrainer
        from repro.nn.network import MLP

        def run(data):
            net = MLP([data.input_dim, 32, data.n_classes], seed=0)
            tr = StandardTrainer(net, lr=1e-2, seed=1)
            tr.fit(data.x_train, data.y_train, epochs=8, batch_size=10)
            return tr.evaluate(data.x_test, data.y_test)

        clean = run(tiny_dataset)
        noisy = run(with_label_noise(tiny_dataset, 0.6, seed=2))
        assert noisy < clean
