"""Unit tests for DenseLayer's He-normal initialisation."""

import numpy as np
import pytest

from repro.nn.layers import DenseLayer


def test_he_normal_variance(rng):
    n_in = 400
    w = DenseLayer(n_in, 500, rng).W
    assert w.var() == pytest.approx(2.0 / n_in, rel=0.1)


def test_deterministic_given_seed():
    a = DenseLayer(10, 10, np.random.default_rng(42)).W
    b = DenseLayer(10, 10, np.random.default_rng(42)).W
    np.testing.assert_array_equal(a, b)
