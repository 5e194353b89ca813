"""Cross-module property-based tests (hypothesis) and failure injection.

These complement the per-module suites with invariants that span layers of
the stack: sparse/dense optimizer equivalence, batch-splitting coherence
of the forward pass, trainer determinism, estimator scale equivariance,
and defined behaviour on hostile inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx.bernoulli import bernoulli_multiply
from repro.approx.drineas import cr_multiply
from repro.core.registry import make_trainer, trainer_names
from repro.harness.flops import method_step_flops
from repro.nn.network import MLP
from repro.nn.optim import get_optimizer


class TestOptimizerSparseDenseEquivalence:
    """A sparse-column update must equal the dense update restricted to
    those columns, for every optimiser — the property the ALSH trainer's
    correctness rests on."""

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(["sgd", "adam"]),
        seed=st.integers(0, 10**6),
        n_steps=st.integers(1, 4),
    )
    def test_equivalence(self, name, seed, n_steps):
        rng = np.random.default_rng(seed)
        n_in, n_out = 5, 8
        cols = np.sort(rng.choice(n_out, size=3, replace=False))
        w_dense = rng.normal(size=(n_in, n_out))
        w_sparse = w_dense.copy()
        opt_dense = get_optimizer(name, lr=0.05)
        opt_sparse = get_optimizer(name, lr=0.05)
        for _ in range(n_steps):
            grad = rng.normal(size=(n_in, n_out))
            masked = np.zeros_like(grad)
            masked[:, cols] = grad[:, cols]
            opt_dense.update("w", w_dense, masked)
            opt_sparse.update("w", w_sparse, grad[:, cols], index=cols)
            if name == "sgd":
                np.testing.assert_allclose(w_dense, w_sparse, atol=1e-12)
        # For stateful optimisers, dense zero-gradient steps still advance
        # state, so exact equality only holds for the touched columns when
        # the untouched dense gradients are zero — verify columns match.
        np.testing.assert_allclose(
            w_dense[:, cols], w_sparse[:, cols], atol=1e-8
        )
        untouched = np.setdiff1d(np.arange(n_out), cols)
        if name in ("sgd",):
            np.testing.assert_allclose(
                w_dense[:, untouched], w_sparse[:, untouched], atol=1e-12
            )


class TestForwardBatchCoherence:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        split=st.integers(1, 7),
    )
    def test_forward_is_rowwise(self, seed, split):
        """forward(concat(a, b)) == concat(forward(a), forward(b))."""
        rng = np.random.default_rng(seed)
        net = MLP([6, 9, 4], seed=1)
        x = rng.normal(size=(8, 6))
        full = net.predict_logproba(x)
        parts = np.vstack(
            [net.predict_logproba(x[:split]), net.predict_logproba(x[split:])]
        )
        np.testing.assert_allclose(full, parts, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_forward_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        net = MLP([5, 7, 3], seed=2)
        x = rng.normal(size=(4, 5))
        np.testing.assert_array_equal(
            net.predict_logproba(x), net.predict_logproba(x)
        )


class TestTrainerDeterminism:
    @pytest.mark.parametrize("method", trainer_names())
    def test_same_seeds_same_weights(self, method, tiny_dataset):
        """Every trainer is fully reproducible from its seeds."""

        def run():
            net = MLP([tiny_dataset.input_dim, 16, tiny_dataset.n_classes], seed=0)
            trainer = make_trainer(method, net, lr=1e-3, seed=7)
            trainer.fit(
                tiny_dataset.x_train[:60], tiny_dataset.y_train[:60],
                epochs=1, batch_size=1 if method in ("alsh", "topk") else 10,
            )
            return [layer.W.copy() for layer in net.layers]

        for w_a, w_b in zip(run(), run()):
            np.testing.assert_array_equal(w_a, w_b)


class TestEstimatorEquivariance:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        scale=st.floats(0.1, 10.0),
    )
    def test_bernoulli_scale_equivariance(self, seed, scale):
        """Estimating (cA)B with the same rng equals c·(estimate of AB):
        the Eq. 7 probabilities are scale-invariant, so the same index set
        is kept."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 12))
        b = rng.normal(size=(12, 3))
        est1 = bernoulli_multiply(a, b, 5, np.random.default_rng(seed + 1))
        est2 = bernoulli_multiply(scale * a, b, 5, np.random.default_rng(seed + 1))
        np.testing.assert_allclose(est2, scale * est1, rtol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_cr_transpose_duality(self, seed):
        """(AB)^T = B^T A^T must hold for the estimator too when the same
        indices are drawn (the probabilities are symmetric in that swap)."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 10))
        b = rng.normal(size=(10, 5))
        est = cr_multiply(a, b, 6, np.random.default_rng(seed + 2))
        est_t = cr_multiply(b.T, a.T, 6, np.random.default_rng(seed + 2))
        np.testing.assert_allclose(est_t, est.T, rtol=1e-9)


class TestFlopsMonotonicity:
    @settings(max_examples=25, deadline=None)
    @given(
        method=st.sampled_from(["standard", "dropout", "alsh", "mc"]),
        width=st.integers(8, 64),
        batch=st.integers(1, 16),
    )
    def test_flops_grow_with_width(self, method, width, batch):
        small = method_step_flops(method, [32, width, 4], batch=batch)
        large = method_step_flops(method, [32, 2 * width, 4], batch=batch)
        assert large.total > small.total

    @settings(max_examples=25, deadline=None)
    @given(
        method=st.sampled_from(["standard", "dropout", "alsh", "mc"]),
        depth=st.integers(1, 4),
    )
    def test_flops_grow_with_depth(self, method, depth):
        shallow = method_step_flops(method, [32] + [24] * depth + [4])
        deep = method_step_flops(method, [32] + [24] * (depth + 1) + [4])
        assert deep.total > shallow.total


class TestFailureInjection:
    def test_trainers_raise_or_survive_nan_inputs(self, tiny_dataset):
        """NaN features must never hang; a clean ValueError or a NaN loss
        are both acceptable, an infinite loop is not (regression test for
        the waterfilling hang)."""
        x = tiny_dataset.x_train[:20].copy()
        x[0, :] = np.nan
        y = tiny_dataset.y_train[:20]
        for method in ("standard", "mc", "dropout"):
            net = MLP([tiny_dataset.input_dim, 8, tiny_dataset.n_classes], seed=0)
            trainer = make_trainer(method, net, lr=1e-3, seed=1)
            try:
                loss = trainer.train_batch(x, y)
            except ValueError:
                continue  # fail-fast is fine
            assert np.isnan(loss) or np.isfinite(loss)

    def test_wrong_feature_width_fails_loudly(self, tiny_dataset):
        net = MLP([tiny_dataset.input_dim + 1, 8, tiny_dataset.n_classes], seed=0)
        trainer = make_trainer("standard", net, lr=1e-3, seed=1)
        with pytest.raises(ValueError):
            trainer.train_batch(tiny_dataset.x_train[:4], tiny_dataset.y_train[:4])

    def test_out_of_range_labels_fail(self, tiny_dataset):
        net = MLP([tiny_dataset.input_dim, 8, tiny_dataset.n_classes], seed=0)
        trainer = make_trainer("standard", net, lr=1e-3, seed=1)
        bad = np.full(4, tiny_dataset.n_classes + 3)
        with pytest.raises(IndexError):
            trainer.train_batch(tiny_dataset.x_train[:4], bad)

    def test_empty_batch_fails(self, tiny_dataset):
        net = MLP([tiny_dataset.input_dim, 8, tiny_dataset.n_classes], seed=0)
        trainer = make_trainer("standard", net, lr=1e-3, seed=1)
        with pytest.raises((ValueError, IndexError, ZeroDivisionError)):
            trainer.train_batch(
                np.empty((0, tiny_dataset.input_dim)), np.empty(0, dtype=int)
            )
