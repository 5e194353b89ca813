"""Unit tests for repro.nn.network.MLP, including full gradient checks."""

import numpy as np
import pytest

from repro.nn.activations import LogSoftmax, ReLU
from repro.nn.losses import NLLLoss
from repro.nn.network import MLP


class TestConstruction:
    def test_depth_counts_hidden_layers(self):
        assert MLP([10, 5, 5, 3], seed=0).depth == 2
        assert MLP([10, 3], seed=0).depth == 0

    def test_rejects_short_architecture(self):
        with pytest.raises(ValueError):
            MLP([10])

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            MLP([10, 0, 3])

    def test_num_params(self):
        net = MLP([4, 3, 2], seed=0)
        assert net.num_params() == (4 * 3 + 3) + (3 * 2 + 2)

    @pytest.mark.parametrize(
        "option", ["hidden_activation", "output_activation"]
    )
    def test_is_the_papers_relu_log_softmax_network(self, option):
        net = MLP([4, 3, 2], seed=0)
        assert isinstance(net.hidden_activation, ReLU)
        assert isinstance(net.output_activation, LogSoftmax)
        with pytest.raises(TypeError, match=option):
            MLP([4, 3, 2], seed=0, **{option: "relu"})

    def test_seed_reproducibility(self):
        a = MLP([6, 4, 2], seed=5)
        b = MLP([6, 4, 2], seed=5)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.W, lb.W)


class TestForward:
    def test_output_is_log_distribution(self, rng):
        net = MLP([8, 6, 4], seed=0)
        x = rng.normal(size=(5, 8))
        out = net.forward(x).output
        np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)

    def test_cache_shapes(self, rng):
        net = MLP([8, 6, 5, 4], seed=0)
        x = rng.normal(size=(3, 8))
        cache = net.forward(x)
        assert len(cache.activations) == 3  # x, a1, a2
        assert len(cache.zs) == 3
        assert cache.activations[1].shape == (3, 6)
        assert cache.zs[-1].shape == (3, 4)

    def test_single_sample_promoted_to_batch(self, rng):
        net = MLP([8, 4], seed=0)
        out = net.forward(rng.normal(size=8)).output
        assert out.shape == (1, 4)

    def test_hidden_activations_nonnegative_with_relu(self, rng):
        net = MLP([8, 6, 4], seed=0)
        cache = net.forward(rng.normal(size=(4, 8)))
        assert (cache.activations[1] >= 0).all()


class TestBackward:
    def test_gradients_match_finite_difference(self, rng):
        """Full end-to-end gradient check of the exact backward pass."""
        net = MLP([5, 4, 3], seed=1)
        x = rng.normal(size=(3, 5))
        y = np.array([0, 2, 1])
        grads = net.backward(net.forward(x), y)
        eps = 1e-6
        for layer_idx, layer in enumerate(net.layers):
            g_w, g_b = grads[layer_idx]
            for i in range(layer.W.shape[0]):
                for j in range(layer.W.shape[1]):
                    orig = layer.W[i, j]
                    layer.W[i, j] = orig + eps
                    up = net.loss(x, y)
                    layer.W[i, j] = orig - eps
                    down = net.loss(x, y)
                    layer.W[i, j] = orig
                    assert g_w[i, j] == pytest.approx(
                        (up - down) / (2 * eps), abs=1e-5
                    ), f"W[{layer_idx}][{i},{j}]"
            for j in range(layer.b.shape[0]):
                orig = layer.b[j]
                layer.b[j] = orig + eps
                up = net.loss(x, y)
                layer.b[j] = orig - eps
                down = net.loss(x, y)
                layer.b[j] = orig
                assert g_b[j] == pytest.approx((up - down) / (2 * eps), abs=1e-5)

    def test_gradient_shapes(self, rng):
        net = MLP([5, 7, 6, 2], seed=0)
        grads = net.backward(net.forward(rng.normal(size=(2, 5))), np.array([0, 1]))
        assert len(grads) == 3
        for (g_w, g_b), layer in zip(grads, net.layers):
            assert g_w.shape == layer.W.shape
            assert g_b.shape == layer.b.shape


class TestInference:
    def test_predict_shape_and_range(self, rng):
        net = MLP([8, 4], seed=0)
        preds = net.predict(rng.normal(size=(10, 8)))
        assert preds.shape == (10,)
        assert ((preds >= 0) & (preds < 4)).all()

    def test_loss_positive(self, rng):
        net = MLP([8, 4], seed=0)
        assert net.loss(rng.normal(size=(5, 8)), rng.integers(0, 4, 5)) > 0

    def test_gradient_descent_reduces_loss(self, rng):
        """A few exact GD steps must reduce the training loss."""
        net = MLP([6, 8, 3], seed=2)
        x = rng.normal(size=(20, 6))
        y = rng.integers(0, 3, size=20)
        before = net.loss(x, y)
        for _ in range(30):
            grads = net.backward(net.forward(x), y)
            for (g_w, g_b), layer in zip(grads, net.layers):
                layer.W -= 0.5 * g_w
                layer.b -= 0.5 * g_b
        assert net.loss(x, y) < before
