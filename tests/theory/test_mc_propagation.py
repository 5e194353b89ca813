"""Tests for the unbiased-estimator variance-propagation theory."""

import numpy as np
import pytest

from repro.core.mc_approx import MCApproxTrainer
from repro.nn.network import MLP
from repro.theory.analysis import layerwise_error
from repro.theory.mc_propagation import relative_variance_growth


def forward_approx_mc(net, node_frac):
    """MC-approx estimating its feedforward products at ``node_frac``."""
    return MCApproxTrainer(
        net, node_frac=node_frac, min_node_samples=1, approximate_forward=True
    )


class TestClosedForm:
    def test_zero_noise_zero_growth(self):
        assert relative_variance_growth(0.0, 10) == 0.0

    def test_single_layer_is_rho(self):
        assert relative_variance_growth(0.3, 1) == pytest.approx(0.3)

    def test_exponential_shape(self):
        """Matches Theorem 7.2's structure: constant multiplicative rate."""
        rho = 0.2
        for k in range(1, 8):
            growth = (1 + relative_variance_growth(rho, k + 1)) / (
                1 + relative_variance_growth(rho, k)
            )
            assert growth == pytest.approx(1 + rho)

    def test_monotone_in_depth_and_noise(self):
        assert relative_variance_growth(0.2, 5) > relative_variance_growth(0.2, 2)
        assert relative_variance_growth(0.4, 3) > relative_variance_growth(0.1, 3)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            relative_variance_growth(-0.1, 2)
        with pytest.raises(ValueError):
            relative_variance_growth(0.1, -1)


class TestMeasurement:
    @pytest.fixture(scope="class")
    def net(self):
        return MLP([32] + [48] * 5 + [4], seed=0)

    def test_shape(self, net, rng):
        errors = layerwise_error(
            forward_approx_mc(net, 0.5), rng.normal(size=(5, 32)), rng, trials=3
        )
        assert errors.shape == (5,)

    def test_error_compounds_with_depth(self, net, rng):
        """The §10.1 failure mechanism: even the unbiased estimator's
        forward error grows through the chain."""
        errors = layerwise_error(
            forward_approx_mc(net, 0.3), rng.normal(size=(10, 32)),
            np.random.default_rng(1), trials=8,
        )
        assert errors[-1] > errors[0]

    def test_bigger_budget_smaller_error(self, net, rng):
        x = rng.normal(size=(8, 32))
        small = layerwise_error(
            forward_approx_mc(net, 0.2), x, np.random.default_rng(2), trials=6
        )
        large = layerwise_error(
            forward_approx_mc(net, 0.8), x, np.random.default_rng(2), trials=6
        )
        assert large.mean() < small.mean()

    def test_full_budget_exact(self, net, rng):
        errors = layerwise_error(
            forward_approx_mc(net, 1.0), rng.normal(size=(4, 32)), rng, trials=2
        )
        np.testing.assert_allclose(errors, 0.0, atol=1e-10)

    def test_validation(self, net, rng):
        x = rng.normal(size=(2, 32))
        with pytest.raises(ValueError):
            forward_approx_mc(net, 0.0)
        with pytest.raises(ValueError):
            layerwise_error(forward_approx_mc(net, 0.5), x, rng, trials=0)
        shallow = forward_approx_mc(MLP([8, 3], seed=0), 0.5)
        with pytest.raises(ValueError):
            layerwise_error(shallow, rng.normal(size=(2, 8)), rng)
