"""Tests for the concept-drift stream."""

import numpy as np
import pytest

from repro.data.streams import DriftingStream


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"dim": 1},
            {"n_classes": 1},
            {"batch_size": 0},
            {"drift_per_batch": -0.1},
            {"noise": -1.0},
        ],
    )
    def test_invalid_args(self, kw):
        defaults = dict(dim=8, n_classes=3)
        defaults.update(kw)
        with pytest.raises(ValueError):
            DriftingStream(**defaults)


class TestEmission:
    def test_batch_shapes(self):
        stream = DriftingStream(dim=10, n_classes=4, batch_size=16, seed=0)
        x, y = stream.next_batch()
        assert x.shape == (16, 10)
        assert y.shape == (16,)
        assert ((y >= 0) & (y < 4)).all()

    def test_deterministic(self):
        a = DriftingStream(dim=6, n_classes=3, seed=5)
        b = DriftingStream(dim=6, n_classes=3, seed=5)
        xa, ya = a.next_batch()
        xb, yb = b.next_batch()
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)

    def test_iterator_protocol(self):
        stream = DriftingStream(dim=6, n_classes=3, seed=0)
        it = iter(stream)
        next(it)
        next(it)
        assert stream.batches_emitted == 2

    def test_learnable_at_any_time(self):
        """Nearest-prototype classification beats chance on eval batches,
        before and after heavy drift."""
        stream = DriftingStream(dim=12, n_classes=4, drift_per_batch=0.05, seed=1)

        def ncm_accuracy():
            protos = stream.prototypes() * 3.0
            x, y = stream.eval_batch(300)
            d = ((x[:, None, :] - protos[None]) ** 2).sum(axis=2)
            return (d.argmin(axis=1) == y).mean()

        assert ncm_accuracy() > 0.6
        for _ in range(200):
            stream.next_batch()
        assert ncm_accuracy() > 0.6


class TestCheckpointState:
    def test_state_dict_round_trip_resumes_identically(self):
        """A restored stream emits the exact batches the original would.

        ``eval_batch`` draws its seed from the main generator, so the
        round trip must reproduce eval batches too — eval cadence is
        part of the deterministic trajectory.
        """
        stream = DriftingStream(dim=10, n_classes=4, drift_per_batch=0.03, seed=9)
        for _ in range(17):
            stream.next_batch()
        meta, arrays = stream.state_dict()

        other = DriftingStream(dim=10, n_classes=4, drift_per_batch=0.03, seed=123)
        for _ in range(3):  # desync before restoring
            other.next_batch()
        other.load_state_dict(meta, arrays)
        assert other.batches_emitted == 17

        for _ in range(5):
            xa, ya = stream.next_batch()
            xb, yb = other.next_batch()
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)
        ea, eya = stream.eval_batch(40)
        eb, eyb = other.eval_batch(40)
        np.testing.assert_array_equal(ea, eb)
        np.testing.assert_array_equal(eya, eyb)

    def test_state_dict_arrays_are_copies(self):
        stream = DriftingStream(dim=8, n_classes=3, seed=0)
        _, arrays = stream.state_dict()
        arrays["protos"][:] = 0.0
        assert np.linalg.norm(stream.prototypes()) > 0.0

    def test_load_rejects_mismatched_shapes(self):
        stream = DriftingStream(dim=8, n_classes=3, seed=0)
        meta, arrays = stream.state_dict()
        other = DriftingStream(dim=8, n_classes=4, seed=0)
        with pytest.raises(ValueError):
            other.load_state_dict(meta, arrays)


class TestDrift:
    def test_no_drift_keeps_prototypes(self):
        stream = DriftingStream(dim=8, n_classes=3, drift_per_batch=0.0, seed=0)
        before = stream.prototypes()
        for _ in range(20):
            stream.next_batch()
        np.testing.assert_array_equal(stream.prototypes(), before)

    def test_drift_moves_prototypes(self):
        stream = DriftingStream(dim=8, n_classes=3, drift_per_batch=0.05, seed=0)
        before = stream.prototypes()
        for _ in range(50):
            stream.next_batch()
        after = stream.prototypes()
        # 50 steps of 0.05 rad: prototypes have rotated substantially.
        cos = (before * after).sum(axis=1)
        assert (cos < 0.95).all()

    def test_prototypes_stay_unit(self):
        stream = DriftingStream(dim=8, n_classes=3, drift_per_batch=0.1, seed=2)
        for _ in range(100):
            stream.next_batch()
        np.testing.assert_allclose(
            np.linalg.norm(stream.prototypes(), axis=1), 1.0, atol=1e-9
        )

    def test_drift_rate_controls_speed(self):
        def displacement(rate):
            stream = DriftingStream(dim=8, n_classes=3, drift_per_batch=rate, seed=3)
            before = stream.prototypes()
            for _ in range(30):
                stream.next_batch()
            cos = (before * stream.prototypes()).sum(axis=1).mean()
            return 1.0 - cos

        assert displacement(0.05) > displacement(0.005)

    def test_frozen_model_decays_under_drift(self):
        """The headline property: a model trained at t=0 loses accuracy as
        the distribution rotates away from it."""
        from repro.core.standard import StandardTrainer
        from repro.nn.network import MLP

        stream = DriftingStream(
            dim=16, n_classes=4, batch_size=20, drift_per_batch=0.04, seed=4
        )
        net = MLP([16, 32, 4], seed=0)
        trainer = StandardTrainer(net, lr=5e-2, seed=1)
        for _ in range(80):
            x, y = stream.next_batch()
            trainer.train_batch(x, y)
        x0, y0 = stream.eval_batch(300)
        acc_now = (trainer.predict(x0) == y0).mean()
        for _ in range(250):  # distribution rotates, model frozen
            stream.next_batch()
        x1, y1 = stream.eval_batch(300)
        acc_later = (trainer.predict(x1) == y1).mean()
        assert acc_now > acc_later + 0.1


class LoopStream(DriftingStream):
    """The per-class slerp loop the vectorised drift step replaced."""

    def _rotate_towards(self):
        for c in range(self.n_classes):
            p, t = self._protos[c], self._targets[c]
            cos = float(np.clip(p @ t, -1.0, 1.0))
            angle = np.arccos(cos)
            if angle < self.drift_per_batch + 1e-6:
                self._targets[c] = self._unit(self.rng.normal(size=self.dim))
                continue
            step = self.drift_per_batch / angle
            sin = np.sin(angle)
            new = (
                np.sin((1 - step) * angle) / sin * p
                + np.sin(step * angle) / sin * t
            )
            self._protos[c] = self._unit(new)


class TestVectorisedDrift:
    @pytest.mark.parametrize("drift", [0.0, 0.02, 0.3, 1.0])
    def test_byte_identical_to_per_class_loop(self, drift):
        """3000 batches: equal batches, prototypes, targets and RNG state.

        At every rate above 0 some targets are reached and redrawn (at
        0.02 rad a class needs about 80 batches to reach one), so the
        redraw path runs interleaved with the slerp steps.
        """
        kw = dict(dim=32, n_classes=8, drift_per_batch=drift, seed=5)
        fast, loop = DriftingStream(**kw), LoopStream(**kw)
        targets = loop._targets.copy()
        redrawn = 0
        for _ in range(3000):
            (xa, ya), (xb, yb) = fast.next_batch(), loop.next_batch()
            assert xa.tobytes() == xb.tobytes() and ya.tobytes() == yb.tobytes()
            redrawn += int((loop._targets != targets).any(axis=1).sum())
            targets = loop._targets.copy()
        assert fast._protos.tobytes() == loop._protos.tobytes()
        assert fast._targets.tobytes() == loop._targets.tobytes()
        assert fast.rng.bit_generator.state == loop.rng.bit_generator.state
        assert (redrawn > 0) == (drift > 0)
