"""Tests for the MC-APPROX trainer."""

import numpy as np
import pytest

from obs.conftest import BATCH_SIZE, EPOCHS, LAYER_SIZES, SEED, weights_digest
from repro.core.mc_approx import MCApproxTrainer
from repro.core.standard import StandardTrainer
from repro.nn.network import MLP

#: sha256 of the weights after the obs suite's fixed-seed two-epoch run
#: (``tests/obs/conftest.py``) with the §10.1 forward approximation on,
#: ``node_frac=0.25, min_node_samples=4``.  No golden trace runs this
#: path; the digest was written before MC-approx moved onto the shared
#: full-width loop.
APPROXIMATE_FORWARD_DIGEST = (
    "9c9f0989287ecd20b13464599f17aa496c345eef5e282a1fac47ff56634776b5"
)


class TestValidation:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            MCApproxTrainer(MLP([4, 3, 2], seed=0), k=0)

    def test_invalid_node_frac(self):
        with pytest.raises(ValueError):
            MCApproxTrainer(MLP([4, 3, 2], seed=0), node_frac=0.0)


class TestSampledMatmul:
    def test_full_budget_exact(self, rng):
        trainer = MCApproxTrainer(MLP([4, 3, 2], seed=0), seed=1)
        a = rng.normal(size=(5, 10))
        b = rng.normal(size=(10, 6))
        np.testing.assert_allclose(
            trainer._sampled_matmul(a, b, 10), a @ b, atol=1e-10
        )

    def test_budget_clipped_to_inner_dim(self, rng):
        trainer = MCApproxTrainer(MLP([4, 3, 2], seed=0), seed=1)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 2))
        # budget 50 > inner dim 3: must behave like exact.
        np.testing.assert_allclose(
            trainer._sampled_matmul(a, b, 50), a @ b, atol=1e-10
        )

    def test_unbiased_estimate(self, rng):
        trainer = MCApproxTrainer(MLP([4, 3, 2], seed=0), seed=1)
        a = rng.normal(size=(4, 20))
        b = rng.normal(size=(20, 3))
        exact = a @ b
        acc = np.zeros_like(exact)
        n = 600
        for _ in range(n):
            acc += trainer._sampled_matmul(a, b, 5)
        err = np.linalg.norm(acc / n - exact, "fro") / np.linalg.norm(exact, "fro")
        assert err < 0.15


class TestGradientFidelity:
    def test_expected_update_tracks_exact_gradient(self, rng):
        """The mean MC weight update must align with the exact gradient
        direction (cosine similarity near 1)."""
        x = rng.normal(size=(16, 10))
        y = rng.integers(0, 3, 16)
        ref = MLP([10, 12, 3], seed=0)
        exact_grads = ref.backward(ref.forward(x), y)
        lr = 0.1
        n_trials = 200
        mean_update = [np.zeros_like(layer.W) for layer in ref.layers]
        for t in range(n_trials):
            net = MLP([10, 12, 3], seed=0)
            trainer = MCApproxTrainer(net, lr=lr, k=6, node_frac=0.5, seed=t)
            trainer.train_batch(x, y)
            for i, layer in enumerate(net.layers):
                mean_update[i] += ref.layers[i].W - layer.W  # = lr * grad_est
        for i, (g_w, _) in enumerate(exact_grads):
            est = mean_update[i] / (n_trials * lr)
            cos = (est * g_w).sum() / (
                np.linalg.norm(est) * np.linalg.norm(g_w)
            )
            assert cos > 0.95, f"layer {i} cosine {cos}"

    def test_full_budget_matches_standard(self, rng):
        """k and node_frac at full budget make MC-approx identical to the
        exact trainer (sampling keeps everything, scales are 1)."""
        x = rng.normal(size=(4, 8))
        y = rng.integers(0, 3, 4)
        net_a = MLP([8, 6, 3], seed=0)
        net_b = MLP([8, 6, 3], seed=0)
        MCApproxTrainer(net_a, lr=0.1, k=100, node_frac=1.0, seed=1).train_batch(x, y)
        StandardTrainer(net_b, lr=0.1, seed=1).train_batch(x, y)
        for la, lb in zip(net_a.layers, net_b.layers):
            np.testing.assert_allclose(la.W, lb.W, atol=1e-10)
            np.testing.assert_allclose(la.b, lb.b, atol=1e-10)


class TestTraining:
    def test_learns_minibatch(self, tiny_dataset):
        net = MLP([tiny_dataset.input_dim, 48, tiny_dataset.n_classes], seed=0)
        trainer = MCApproxTrainer(net, lr=1e-2, k=10, seed=1)
        trainer.fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=10, batch_size=20
        )
        assert trainer.evaluate(tiny_dataset.x_test, tiny_dataset.y_test) > 0.6

    def test_scales_with_depth(self, tiny_dataset):
        """Unlike ALSH-approx, MC-approx keeps learning at depth (backprop-
        only approximation doesn't compound through the forward chain)."""
        net = MLP(
            [tiny_dataset.input_dim] + [32] * 5 + [tiny_dataset.n_classes], seed=0
        )
        trainer = MCApproxTrainer(net, lr=1e-2, k=10, seed=1)
        trainer.fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=12, batch_size=20
        )
        assert trainer.evaluate(tiny_dataset.x_test, tiny_dataset.y_test) > 0.5

    def test_forward_pass_exact_by_default(self, rng):
        """The published method approximates only backprop: the training
        loss reported for a batch equals the exact network loss."""
        net = MLP([8, 6, 3], seed=0)
        trainer = MCApproxTrainer(net, lr=0.0001, seed=1)
        x = rng.normal(size=(3, 8))
        y = np.array([0, 1, 2])
        expected = net.loss(x, y)
        assert trainer.train_batch(x, y) == pytest.approx(expected)

    def test_forward_approximation_flag(self, rng):
        """approximate_forward=True perturbs the forward pass (the §10.1
        negative-result ablation)."""
        net = MLP([8, 20, 3], seed=0)
        trainer = MCApproxTrainer(
            net, lr=0.0001, node_frac=0.2, min_node_samples=1,
            approximate_forward=True, seed=1,
        )
        x = rng.normal(size=(3, 8))
        y = np.array([0, 1, 2])
        exact = net.loss(x, y)
        losses = [trainer.train_batch(x, y) for _ in range(5)]
        assert any(abs(l - exact) > 1e-9 for l in losses)

    def test_forward_approximation_weights_are_pinned(self, tiny_dataset):
        net = MLP(LAYER_SIZES, seed=SEED)
        trainer = MCApproxTrainer(
            net, approximate_forward=True, node_frac=0.25,
            min_node_samples=4, seed=SEED,
        )
        trainer.fit(
            tiny_dataset.x_train,
            tiny_dataset.y_train,
            epochs=EPOCHS,
            batch_size=BATCH_SIZE,
            x_val=tiny_dataset.x_val,
            y_val=tiny_dataset.y_val,
        )
        assert weights_digest(net) == APPROXIMATE_FORWARD_DIGEST
