"""Tests for the DROPOUT trainer (current-layer uniform sampling)."""

import numpy as np
import pytest

from repro.core.dropout import DropoutTrainer
from repro.nn.network import MLP


class TestValidation:
    def test_invalid_keep_prob(self):
        net = MLP([4, 3, 2], seed=0)
        with pytest.raises(ValueError):
            DropoutTrainer(net, keep_prob=0.0)
        with pytest.raises(ValueError):
            DropoutTrainer(net, keep_prob=1.5)

    def test_invalid_min_active(self):
        net = MLP([4, 3, 2], seed=0)
        with pytest.raises(ValueError):
            DropoutTrainer(net, min_active=0)

    def test_min_active_wider_than_a_hidden_layer(self):
        """Refused at construction, not by rng.choice mid-training."""
        with pytest.raises(ValueError, match="3 nodes of hidden layer 0"):
            DropoutTrainer(MLP([4, 3, 2], seed=0), min_active=5)
        with pytest.raises(ValueError, match="3 nodes of hidden layer 1"):
            DropoutTrainer(MLP([4, 6, 3, 2], seed=0), min_active=5)
        trainer = DropoutTrainer(MLP([4, 6, 3, 2], seed=0), min_active=3)
        loss = trainer.train_batch(np.ones((2, 4)), np.array([0, 1]))
        assert np.isfinite(loss)


class TestSampling:
    def test_active_set_size_distribution(self):
        net = MLP([4, 100, 2], seed=0)
        trainer = DropoutTrainer(net, keep_prob=0.3, seed=1)
        x = np.zeros(4)
        sizes = [trainer._select_active(0, x).size for _ in range(300)]
        assert np.mean(sizes) == pytest.approx(30, abs=3)

    def test_min_active_enforced(self):
        net = MLP([4, 100, 2], seed=0)
        trainer = DropoutTrainer(net, keep_prob=0.001, min_active=5, seed=1)
        for _ in range(50):
            assert trainer._select_active(0, np.zeros(4)).size >= 5


class TestTraining:
    def test_inactive_columns_untouched(self, rng):
        """Weights of dropped hidden nodes must not change in a step."""
        net = MLP([6, 40, 3], seed=0)
        trainer = DropoutTrainer(net, lr=0.5, keep_prob=0.1, seed=2)
        w_before = net.layers[0].W.copy()
        # Capture the sampled set by seeding the trainer's rng fork.
        probe = DropoutTrainer(net, lr=0.5, keep_prob=0.1, seed=2)
        cols = probe._select_active(0, np.zeros(6))
        trainer.train_batch(rng.normal(size=(1, 6)), np.array([0]))
        inactive = np.setdiff1d(np.arange(40), cols)
        np.testing.assert_array_equal(
            net.layers[0].W[:, inactive], w_before[:, inactive]
        )

    def test_learns_with_moderate_keep_prob(self, tiny_dataset):
        net = MLP([tiny_dataset.input_dim, 64, tiny_dataset.n_classes], seed=0)
        trainer = DropoutTrainer(net, lr=1e-2, keep_prob=0.5, seed=1)
        trainer.fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=10, batch_size=10
        )
        assert trainer.evaluate(tiny_dataset.x_test, tiny_dataset.y_test) > 0.5

    def test_tiny_keep_prob_hurts(self, hard_dataset):
        """The paper's p=0.05 fair-comparison setting cripples dropout
        relative to exact training (Table 2)."""
        from repro.core.standard import StandardTrainer

        def run(cls, **kw):
            net = MLP([hard_dataset.input_dim, 64, 64, hard_dataset.n_classes], seed=0)
            tr = cls(net, lr=1e-2, seed=1, **kw)
            tr.fit(hard_dataset.x_train, hard_dataset.y_train, epochs=5, batch_size=10)
            return tr.evaluate(hard_dataset.x_test, hard_dataset.y_test)

        assert run(DropoutTrainer, keep_prob=0.05) < run(StandardTrainer)

    def test_predict_scales_hidden_activations(self, rng):
        """Inference must apply the keep_prob weight-scaling rule."""
        net = MLP([6, 5, 3], seed=0)
        trainer = DropoutTrainer(net, keep_prob=0.4, seed=1)
        x = rng.normal(size=(4, 6))
        # Manual scaled forward.
        a = x
        a = net.hidden_activation.forward(net.layers[0].forward(a)) * 0.4
        logits = net.layers[1].forward(a)
        np.testing.assert_array_equal(trainer.predict(x), logits.argmax(axis=1))

    def test_loss_returned_finite(self, rng):
        net = MLP([6, 10, 3], seed=0)
        trainer = DropoutTrainer(net, lr=0.1, keep_prob=0.3, seed=1)
        loss = trainer.train_batch(rng.normal(size=(2, 6)), np.array([0, 2]))
        assert np.isfinite(loss)
