"""Tests for the TOPK-APPROX oracle trainer."""

import numpy as np
import pytest

from repro.core.alsh_approx import ALSHApproxTrainer
from repro.core.topk_approx import TopKApproxTrainer
from repro.nn.network import MLP


class TestValidation:
    @pytest.mark.parametrize("frac", [0.0, 1.5])
    def test_invalid_active_frac(self, frac):
        with pytest.raises(ValueError):
            TopKApproxTrainer(MLP([8, 6, 3], seed=0), active_frac=frac)


class TestSelection:
    def test_oracle_selects_true_top_columns(self, rng):
        net = MLP([10, 40, 3], seed=0)
        trainer = TopKApproxTrainer(net, active_frac=0.2, seed=1)
        a = rng.normal(size=10)
        cand = trainer._select_active(0, a)
        assert cand.size == 8
        scores = np.abs(a @ net.layers[0].W)
        true_top = set(np.argsort(-scores)[:8].tolist())
        assert set(cand.tolist()) == true_top

    def test_full_budget_selects_everything(self, rng):
        net = MLP([10, 12, 3], seed=0)
        trainer = TopKApproxTrainer(net, active_frac=1.0, seed=1)
        cand = trainer._select_active(0, rng.normal(size=10))
        np.testing.assert_array_equal(cand, np.arange(12))


class TestTies:
    """An all-zero activation row, as from a dead ReLU layer, gives every
    column the same score."""

    def test_tied_scores_give_distinct_sorted_ids(self):
        trainer = TopKApproxTrainer(MLP([6, 10, 3], seed=0), active_frac=0.3)
        ids = trainer._select_active(0, np.zeros(6))
        assert ids.size == 3
        np.testing.assert_array_equal(ids, np.unique(ids))

    def test_step_from_tied_row_updates_only_selected_columns(self, rng):
        net = MLP([6, 10, 10, 3], seed=0)
        net.layers[0].b[:] = -1e3  # dead layer: layer 1 sees a zero row
        net.layers[1].b[:] = 1.0  # so layer 1's kept nodes fire
        trainer = TopKApproxTrainer(
            net, lr=0.1, optimizer="sgd", active_frac=0.3, seed=1
        )
        ids = trainer._select_active(1, np.zeros(10))
        tied, out = net.layers[1], net.layers[2]
        w_before, b_before = tied.W.copy(), tied.b.copy()
        out_before = out.W.copy()
        loss = trainer.train_batch(rng.normal(size=(1, 6)), np.array([0]))
        assert np.isfinite(loss)
        np.testing.assert_array_equal(np.flatnonzero(tied.b != b_before), ids)
        dropped = np.setdiff1d(np.arange(10), ids)
        np.testing.assert_array_equal(tied.W[:, dropped], w_before[:, dropped])
        # Only the kept nodes feed the output layer.
        moved = np.flatnonzero((out.W != out_before).any(axis=1))
        np.testing.assert_array_equal(moved, ids)


class TestTraining:
    def test_learns_shallow(self, tiny_dataset):
        net = MLP([tiny_dataset.input_dim, 48, tiny_dataset.n_classes], seed=0)
        trainer = TopKApproxTrainer(net, lr=1e-3, active_frac=0.3, seed=1)
        trainer.fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=4, batch_size=1
        )
        assert trainer.evaluate(tiny_dataset.x_test, tiny_dataset.y_test) > 0.5

    def test_oracle_depth_collapse(self, hard_dataset):
        """The point of the trainer: even perfect MIPS collapses at depth,
        exonerating LSH recall (Theorem 7.2's assumption made executable)."""

        def run(depth):
            net = MLP(
                [hard_dataset.input_dim] + [48] * depth + [hard_dataset.n_classes],
                seed=0,
            )
            tr = TopKApproxTrainer(net, lr=1e-3, active_frac=0.25, seed=1)
            tr.fit(
                hard_dataset.x_train, hard_dataset.y_train, epochs=3, batch_size=1
            )
            return tr.evaluate(hard_dataset.x_test, hard_dataset.y_test)

        assert run(1) > run(5) + 0.1

    def test_oracle_at_least_matches_alsh_shallow(self, tiny_dataset):
        """At the same budget, perfect selection should do no worse than
        LSH selection on a shallow network."""

        def run(cls, **kw):
            net = MLP([tiny_dataset.input_dim, 48, tiny_dataset.n_classes], seed=0)
            tr = cls(net, lr=1e-3, seed=1, **kw)
            tr.fit(
                tiny_dataset.x_train, tiny_dataset.y_train, epochs=3,
                batch_size=1,
            )
            return tr.evaluate(tiny_dataset.x_test, tiny_dataset.y_test)

        oracle = run(TopKApproxTrainer, active_frac=0.25)
        alsh = run(
            ALSHApproxTrainer, min_active_frac=0.25, max_active_frac=0.25
        )
        assert oracle >= alsh - 0.1

    def test_inactive_columns_untouched(self, rng):
        net = MLP([10, 30, 3], seed=0)
        trainer = TopKApproxTrainer(net, lr=0.5, active_frac=0.2, seed=1)
        x = rng.normal(size=10)
        cand = trainer._select_active(0, x)
        w_before = net.layers[0].W.copy()
        trainer.train_batch(x.reshape(1, -1), np.array([1]))
        inactive = np.setdiff1d(np.arange(30), cand)
        np.testing.assert_array_equal(
            net.layers[0].W[:, inactive], w_before[:, inactive]
        )

    def test_phase_timers_populated(self, rng):
        net = MLP([10, 20, 3], seed=0)
        trainer = TopKApproxTrainer(net, seed=1)
        history = trainer.fit(
            rng.normal(size=(30, 10)), rng.integers(0, 3, 30),
            epochs=1, batch_size=1,
        )
        assert history.forward_times()[0] > 0
        assert history.backward_times()[0] > 0


class TestInference:
    def test_predict_shapes(self, rng):
        net = MLP([10, 20, 4], seed=0)
        trainer = TopKApproxTrainer(net, seed=1)
        preds = trainer.predict(rng.normal(size=(6, 10)))
        assert preds.shape == (6,)
        assert ((preds >= 0) & (preds < 4)).all()
