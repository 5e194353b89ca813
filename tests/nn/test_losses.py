"""Unit tests for repro.nn.losses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.activations import LogSoftmax
from repro.nn.losses import NLLLoss


class TestNLL:
    def test_perfect_prediction_near_zero_loss(self):
        logp = np.log(np.array([[0.999, 0.0005, 0.0005]]))
        assert NLLLoss().value(logp, np.array([0])) == pytest.approx(0.001, abs=1e-3)

    def test_uniform_prediction_log_k(self):
        k = 4
        logp = np.full((2, k), np.log(1.0 / k))
        assert NLLLoss().value(logp, np.array([1, 3])) == pytest.approx(np.log(k))

    def test_accepts_one_hot_targets(self):
        logp = np.log(np.array([[0.7, 0.3], [0.2, 0.8]]))
        onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
        ints = np.array([0, 1])
        assert NLLLoss().value(logp, onehot) == pytest.approx(
            NLLLoss().value(logp, ints)
        )

    def test_batch_mismatch_raises(self):
        with pytest.raises(ValueError, match="batch mismatch"):
            NLLLoss().value(np.zeros((3, 2)), np.array([0, 1]))


class TestFusedGradient:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 5))
        y = np.array([0, 2, 4])
        loss_fn = lambda z: NLLLoss().value(LogSoftmax().forward(z), y)
        grad = NLLLoss.fused_logit_gradient(logits, y)
        eps = 1e-6
        for i in range(3):
            for j in range(5):
                zp = logits.copy()
                zp[i, j] += eps
                zm = logits.copy()
                zm[i, j] -= eps
                numeric = (loss_fn(zp) - loss_fn(zm)) / (2 * eps)
                assert grad[i, j] == pytest.approx(numeric, abs=1e-6)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        grad = NLLLoss.fused_logit_gradient(logits, y)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    @settings(max_examples=30)
    @given(st.integers(1, 8), st.integers(2, 6), st.integers(0, 10**6))
    def test_fused_equals_chain(self, batch, classes, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(batch, classes))
        y = rng.integers(0, classes, size=batch)
        probs = LogSoftmax.softmax(logits)
        expected = probs.copy()
        expected[np.arange(batch), y] -= 1.0
        expected /= batch
        np.testing.assert_allclose(
            NLLLoss.fused_logit_gradient(logits, y), expected, atol=1e-12
        )


def test_nll_empty_batch_raises():
    with pytest.raises(ValueError, match="empty batch"):
        NLLLoss().value(np.empty((0, 3)), np.empty(0, dtype=int))
