"""Tests for the minibatch loader."""

import numpy as np
import pytest

from repro.data.loader import BatchLoader


@pytest.fixture
def xy(rng):
    return rng.normal(size=(25, 4)), rng.integers(0, 3, 25)


class TestValidation:
    def test_shape_checks(self, rng):
        with pytest.raises(ValueError):
            BatchLoader(rng.normal(size=(5, 2, 2)), np.zeros(5))
        with pytest.raises(ValueError):
            BatchLoader(rng.normal(size=(5, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            BatchLoader(np.empty((0, 3)), np.empty(0))
        with pytest.raises(ValueError):
            BatchLoader(rng.normal(size=(5, 2)), np.zeros(5), batch_size=0)


class TestIteration:
    def test_covers_every_sample_once(self, xy):
        x, y = xy
        loader = BatchLoader(x, y, batch_size=4, seed=0)
        seen = np.concatenate([yb for _, yb in loader])
        assert seen.shape == (25,)
        # Multiset equality of labels.
        np.testing.assert_array_equal(np.sort(seen), np.sort(y))

    def test_batch_sizes(self, xy):
        x, y = xy
        loader = BatchLoader(x, y, batch_size=4, seed=0)
        sizes = [len(yb) for _, yb in loader]
        assert sizes == [4] * 6 + [1]

    def test_len_matches_iteration(self, xy):
        x, y = xy
        for bs in (1, 4, 25, 30):
            loader = BatchLoader(x, y, batch_size=bs, seed=0)
            assert len(loader) == sum(1 for _ in loader)

    def test_stochastic_setting(self, xy):
        """batch_size=1 (the paper's S regime) yields one sample at a time."""
        x, y = xy
        loader = BatchLoader(x, y, batch_size=1, seed=0)
        batches = list(loader)
        assert len(batches) == 25
        assert batches[0][0].shape == (1, 4)

    def test_features_match_labels(self, xy):
        """Shuffling must keep (x, y) pairs aligned."""
        x, y = xy
        # Make features encode their label for verification.
        x = np.tile(y[:, None].astype(float), (1, 4))
        loader = BatchLoader(x, y, batch_size=5, seed=1)
        for xb, yb in loader:
            np.testing.assert_array_equal(xb[:, 0].astype(int), yb)


class TestShuffling:
    def test_epochs_differ(self, xy):
        x, y = xy
        x = np.arange(25, dtype=float).reshape(25, 1)
        loader = BatchLoader(x, np.zeros(25, dtype=int), batch_size=25, seed=2)
        first = next(iter(loader))[0].ravel().copy()
        second = next(iter(loader))[0].ravel().copy()
        assert not np.array_equal(first, second)

    def test_seed_reproducible(self, xy):
        x, y = xy
        a = BatchLoader(x, y, batch_size=5, seed=9)
        b = BatchLoader(x, y, batch_size=5, seed=9)
        for (xa, _), (xb, _) in zip(a, b):
            np.testing.assert_array_equal(xa, xb)

    def test_no_shuffle_preserves_order(self, xy):
        x, y = xy
        loader = BatchLoader(x, y, batch_size=25, shuffle=False)
        xb, yb = next(iter(loader))
        np.testing.assert_array_equal(xb, x)
        np.testing.assert_array_equal(yb, y)
