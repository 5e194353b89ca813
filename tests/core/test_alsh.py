"""Tests for the ALSH-APPROX trainer."""

import numpy as np
import pytest

from repro.core.alsh_approx import ALSHApproxTrainer
from repro.lsh.rebuild import RebuildScheduler
from repro.nn.network import MLP
from repro.obs import InMemoryRecorder


def make_trainer_and_net(depth=2, width=40, seed=0, **kwargs):
    net = MLP([20] + [width] * depth + [4], seed=seed)
    trainer = ALSHApproxTrainer(net, lr=1e-3, seed=seed + 1, **kwargs)
    return trainer, net


class TestValidation:
    def test_invalid_active_fractions(self):
        net = MLP([8, 6, 3], seed=0)
        with pytest.raises(ValueError):
            ALSHApproxTrainer(net, min_active_frac=0.5, max_active_frac=0.2)
        with pytest.raises(ValueError):
            ALSHApproxTrainer(net, min_active_frac=0.0)


class TestIndexes:
    def test_one_index_per_hidden_layer(self):
        trainer, _ = make_trainer_and_net(depth=3)
        assert len(trainer.indexes) == 3
        assert trainer.n_hidden == 3

    def test_index_sized_to_layer(self):
        trainer, net = make_trainer_and_net(depth=2, width=40)
        assert len(trainer.indexes[0]) == 40
        assert trainer.indexes[0].dim == 20  # fan-in of layer 0
        assert trainer.indexes[1].dim == 40


class TestActiveSelection:
    def test_bounds_respected(self, rng):
        trainer, net = make_trainer_and_net(
            depth=1, width=60, min_active_frac=0.1, max_active_frac=0.3
        )
        for _ in range(20):
            active = trainer._select_active(0, rng.normal(size=20))
            assert 6 <= active.size <= 18

    def test_active_fraction_tracked(self, rng):
        trainer, _ = make_trainer_and_net(depth=2)
        assert (trainer.average_active_fraction() == 0).all()
        trainer.train_batch(rng.normal(size=(1, 20)), np.array([0]))
        fracs = trainer.average_active_fraction()
        assert (fracs > 0).all()
        assert (fracs <= 1).all()


class TestTraining:
    def test_inactive_columns_untouched_per_step(self, rng):
        """Only the active columns of a hidden layer may change."""
        trainer, net = make_trainer_and_net(depth=1, width=50, seed=3)
        w_before = net.layers[0].W.copy()
        trainer.train_batch(rng.normal(size=(1, 20)), np.array([1]))
        changed = np.nonzero(np.abs(net.layers[0].W - w_before).sum(axis=0))[0]
        lo, hi = trainer._bounds(50)
        assert changed.size <= hi

    def test_learns_shallow(self, tiny_dataset):
        """With 1 hidden layer ALSH-approx should learn above chance —
        the paper's depth-1 regime where it is competitive."""
        net = MLP([tiny_dataset.input_dim, 48, tiny_dataset.n_classes], seed=0)
        trainer = ALSHApproxTrainer(
            net, lr=1e-3, seed=1, max_active_frac=0.5, min_active_frac=0.1
        )
        trainer.fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=4, batch_size=1
        )
        assert trainer.evaluate(tiny_dataset.x_test, tiny_dataset.y_test) > 0.5

    def test_depth_degradation(self, hard_dataset):
        """The paper's headline negative result (Thm 7.2, Fig. 7): accuracy
        degrades sharply as hidden layers are added."""

        def run(depth):
            net = MLP(
                [hard_dataset.input_dim] + [48] * depth + [hard_dataset.n_classes],
                seed=0,
            )
            tr = ALSHApproxTrainer(net, lr=1e-3, seed=1)
            tr.fit(
                hard_dataset.x_train, hard_dataset.y_train, epochs=3, batch_size=1
            )
            return tr.evaluate(hard_dataset.x_test, hard_dataset.y_test)

        shallow = run(1)
        deep = run(5)
        assert shallow > deep + 0.1

    def test_rebuild_scheduler_consumed(self, rng):
        sched = RebuildScheduler(early_every=5, late_every=5, warmup_samples=0)
        net = MLP([20, 30, 4], seed=0)
        trainer = ALSHApproxTrainer(net, lr=1e-3, seed=1, rebuild=sched)
        x = rng.normal(size=(20, 20))
        y = rng.integers(0, 4, 20)
        trainer.train_batch(x, y)
        assert sched.rebuild_count == 4
        # Touched sets are flushed on rebuild.
        assert all(len(t) < 30 for t in trainer._touched)

    def test_refresh_returns_and_counts_rehashed_columns(self, rng):
        recorder = InMemoryRecorder()
        sched = RebuildScheduler(early_every=10**9, late_every=10**9)
        trainer = ALSHApproxTrainer(
            MLP([20, 30, 4], seed=0), seed=1, rebuild=sched, recorder=recorder
        )
        trainer.train_batch(rng.normal(size=(5, 20)), rng.integers(0, 4, 5))
        touched = len(trainer._touched[0])
        assert touched > 0
        assert trainer.refresh_tables() == touched
        assert trainer.rehashed_columns == touched
        counters = recorder.snapshot()["counters"]
        assert counters["lsh.rehashed_columns"] == touched
        # lsh.rebuilds counts scheduler firings only
        assert "lsh.rebuilds" not in counters
        assert trainer.refresh_tables() == 0  # the touched set was cleared

    def test_batch_loops_per_sample(self, rng):
        trainer, _ = make_trainer_and_net()
        loss = trainer.train_batch(rng.normal(size=(3, 20)), np.array([0, 1, 2]))
        assert np.isfinite(loss)


class TestInference:
    def test_sampled_prediction_shape(self, rng):
        trainer, _ = make_trainer_and_net()
        preds = trainer.predict(rng.normal(size=(7, 20)))
        assert preds.shape == (7,)
        assert ((preds >= 0) & (preds < 4)).all()


class TestUnionBatchMode:
    def test_invalid_mode_rejected(self):
        net = MLP([8, 6, 3], seed=0)
        with pytest.raises(ValueError, match="batch_mode"):
            ALSHApproxTrainer(net, batch_mode="mean")

    def test_union_step_runs_and_is_finite(self, rng):
        net = MLP([20, 40, 4], seed=0)
        trainer = ALSHApproxTrainer(net, lr=1e-3, seed=1, batch_mode="union")
        loss = trainer.train_batch(
            rng.normal(size=(16, 20)), rng.integers(0, 4, 16)
        )
        assert np.isfinite(loss)

    def test_union_respects_caps(self, rng):
        net = MLP([20, 60, 4], seed=0)
        trainer = ALSHApproxTrainer(
            net, seed=1, batch_mode="union",
            min_active_frac=0.1, max_active_frac=0.3,
        )
        cand = trainer._select_active(0, rng.normal(size=(12, 20)))
        assert 6 <= cand.size <= 18

    def test_union_learns(self, tiny_dataset):
        net = MLP([tiny_dataset.input_dim, 48, tiny_dataset.n_classes], seed=0)
        trainer = ALSHApproxTrainer(
            net, lr=1e-3, seed=1, batch_mode="union",
            min_active_frac=0.1, max_active_frac=0.5,
        )
        trainer.fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=6, batch_size=20
        )
        assert trainer.evaluate(tiny_dataset.x_test, tiny_dataset.y_test) > 0.5

    def test_union_faster_than_per_sample(self, tiny_dataset):
        """The point of the mode: vectorised batches beat the Python loop."""

        def epoch_time(mode):
            net = MLP([tiny_dataset.input_dim, 64, tiny_dataset.n_classes],
                      seed=0)
            trainer = ALSHApproxTrainer(net, seed=1, batch_mode=mode)
            best = min(
                trainer.fit(
                    tiny_dataset.x_train, tiny_dataset.y_train,
                    epochs=1, batch_size=20,
                ).total_time
                for _ in range(2)
            )
            return best

        assert epoch_time("union") < epoch_time("per_sample")

    def test_batch_size_one_falls_back_to_per_sample(self):
        """Union mode's one-row step is bitwise the per-sample step:
        losses, weights, tables and counters, across table refreshes."""
        runs = []
        for mode in ("union", "per_sample"):
            recorder = InMemoryRecorder()
            trainer = ALSHApproxTrainer(
                MLP([20, 30, 30, 4], seed=0), seed=5, batch_mode=mode,
                rebuild=RebuildScheduler(
                    early_every=3, late_every=5, warmup_samples=10
                ),
                recorder=recorder,
            )
            data = np.random.default_rng(7)
            losses = [
                trainer.train_batch(
                    data.normal(size=(1, 20)), data.integers(0, 4, 1)
                )
                for _ in range(20)
            ]
            runs.append((trainer, recorder, losses))
        (union, rec_u, loss_u), (per_sample, rec_p, loss_p) = runs
        assert loss_u == loss_p
        for la, lb in zip(union.net.layers, per_sample.net.layers):
            np.testing.assert_array_equal(la.W, lb.W)
            np.testing.assert_array_equal(la.b, lb.b)
        for ia, ib in zip(union.indexes, per_sample.indexes):
            np.testing.assert_array_equal(ia.index.item_gcode, ib.index.item_gcode)
        assert rec_u.counters == rec_p.counters
        assert rec_u.get("lsh.rebuilds") > 0

    def test_union_probe_forward_is_the_training_forward(self, rng):
        """A union batch trains on one shared active set per layer, so the
        forward-error probe must sample that forward, not one per row."""
        net = MLP([16, 64, 64, 4], seed=0)
        trainer = ALSHApproxTrainer(net, seed=1, batch_mode="union")
        x = rng.normal(size=(20, 16))
        probe_rng = np.random.default_rng()
        probe_rng.bit_generator.state = trainer.rng.bit_generator.state
        probed = trainer.probe_approx_forward(x, probe_rng)
        acts, _, _, logits = trainer._forward(x)
        assert len(probed) == len(acts)
        for got, want in zip(probed, acts[1:] + [logits]):
            np.testing.assert_array_equal(got, want)

    def test_union_touched_columns_tracked(self, rng):
        net = MLP([20, 40, 4], seed=0)
        trainer = ALSHApproxTrainer(net, seed=1, batch_mode="union")
        trainer.train_batch(rng.normal(size=(8, 20)), rng.integers(0, 4, 8))
        assert len(trainer._touched[0]) > 0
