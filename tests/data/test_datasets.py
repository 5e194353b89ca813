"""Tests for the Dataset container."""

import numpy as np
import pytest

from repro.data.datasets import Dataset


def _mini(n_train=20, n_test=10, n_val=5, dim=6, n_classes=3):
    rng = np.random.default_rng(0)
    return Dataset(
        name="mini",
        x_train=rng.normal(size=(n_train, dim)),
        y_train=rng.integers(0, n_classes, n_train),
        x_test=rng.normal(size=(n_test, dim)),
        y_test=rng.integers(0, n_classes, n_test),
        x_val=rng.normal(size=(n_val, dim)),
        y_val=rng.integers(0, n_classes, n_val),
        n_classes=n_classes,
        image_shape=(1, 2, 3),
    )


class TestValidation:
    def test_valid_construction(self):
        d = _mini()
        assert d.input_dim == 6
        assert d.n_train == 20
        assert d.n_test == 10
        assert d.n_val == 5

    def test_label_feature_count_mismatch(self):
        d = _mini()
        with pytest.raises(ValueError, match="train"):
            Dataset(
                "bad", d.x_train, d.y_train[:-1], d.x_test, d.y_test,
                d.x_val, d.y_val, 3,
            )

    def test_split_width_mismatch(self):
        d = _mini()
        with pytest.raises(ValueError, match="input_dim"):
            Dataset(
                "bad", d.x_train, d.y_train, d.x_test[:, :4], d.y_test,
                d.x_val, d.y_val, 3,
            )

    def test_labels_out_of_range(self):
        d = _mini()
        bad_labels = d.y_train.copy()
        bad_labels[0] = 99
        with pytest.raises(ValueError, match="out of range"):
            Dataset(
                "bad", d.x_train, bad_labels, d.x_test, d.y_test,
                d.x_val, d.y_val, 3,
            )

    def test_single_class_rejected(self):
        d = _mini()
        with pytest.raises(ValueError, match="classes"):
            Dataset(
                "bad", d.x_train, np.zeros(20, dtype=int), d.x_test,
                np.zeros(10, dtype=int), d.x_val, np.zeros(5, dtype=int), 1,
            )


class TestImages:
    def test_reshape_round_trip(self):
        d = _mini()
        imgs = d.images("train")
        assert imgs.shape == (20, 1, 2, 3)
        np.testing.assert_array_equal(imgs.reshape(20, -1), d.x_train)

    def test_no_image_shape_raises(self):
        d = _mini()
        flat = Dataset(
            "flat", d.x_train, d.y_train, d.x_test, d.y_test,
            d.x_val, d.y_val, 3,
        )
        with pytest.raises(ValueError, match="image shape"):
            flat.images()


def test_describe_mentions_sizes():
    text = _mini().describe()
    assert "20/10/5" in text
    assert "dim=6" in text
