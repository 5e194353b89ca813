"""Kill-and-resume equality for every training method.

The checkpoint subsystem's hard guarantee: a run interrupted at epoch k
and resumed from its checkpoint produces *bitwise identical* weights,
losses, validation accuracies and test predictions to an uninterrupted
run with the same seed.  Wall-clock timings are the only fields allowed
to differ.

"Interrupted" is simulated the honest way — a first trainer fits only k
epochs (writing checkpoints), then a *freshly constructed* trainer, as a
crashed process would build it, fits to the full horizon with ``resume``
picking up the checkpoint file.
"""

import numpy as np
import pytest

from repro.core.registry import make_trainer, trainer_names
from repro.nn.checkpoint import load_checkpoint
from repro.nn.network import MLP

METHODS = trainer_names()
EPOCHS = 4
KILL_AT = 2


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(5)
    return {
        "x": rng.normal(size=(80, 12)),
        "y": rng.integers(0, 3, size=80),
        "xv": rng.normal(size=(24, 12)),
        "yv": rng.integers(0, 3, size=24),
    }


def build(method, **kwargs):
    """A freshly constructed trainer, as a restarted process would build it."""
    net = MLP([12, 16, 16, 3], seed=7)
    return make_trainer(method, net, seed=11, **kwargs)


def fit(trainer, data, epochs, **kwargs):
    return trainer.fit(
        data["x"], data["y"], epochs=epochs, batch_size=16,
        x_val=data["xv"], y_val=data["yv"], **kwargs,
    )


def assert_identical(t_full, h_full, t_resumed, h_resumed, data):
    for i, (a, b) in enumerate(zip(t_full.net.layers, t_resumed.net.layers)):
        np.testing.assert_array_equal(a.W, b.W, err_msg=f"layer {i} W")
        np.testing.assert_array_equal(a.b, b.b, err_msg=f"layer {i} b")
    np.testing.assert_array_equal(h_full.losses(), h_resumed.losses())
    np.testing.assert_array_equal(
        h_full.val_accuracies(), h_resumed.val_accuracies()
    )
    np.testing.assert_array_equal(
        t_full.predict(data["xv"]), t_resumed.predict(data["xv"])
    )


def run_kill_resume(data, tmp_path, method, **kwargs):
    """(uninterrupted trainer+history, resumed trainer+history)."""
    t_full = build(method, **kwargs)
    h_full = fit(t_full, data, EPOCHS)

    t_killed = build(method, **kwargs)
    fit(t_killed, data, KILL_AT, checkpoint_every=1, checkpoint_dir=tmp_path)
    t_resumed = build(method, **kwargs)
    h_resumed = fit(
        t_resumed, data, EPOCHS, checkpoint_every=1, checkpoint_dir=tmp_path
    )
    return t_full, h_full, t_resumed, h_resumed


class TestKillResumeEquality:
    @pytest.mark.parametrize("method", METHODS)
    def test_bitwise_identical_after_resume(self, data, tmp_path, method):
        t_full, h_full, t_resumed, h_resumed = run_kill_resume(
            data, tmp_path, method
        )
        assert len(h_resumed.epochs) == EPOCHS
        assert_identical(t_full, h_full, t_resumed, h_resumed, data)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hash_family": "dwta"},
            {"batch_mode": "union"},
            {"drift_threshold": 0.05},
        ],
        ids=["dwta", "union-batch", "drift-tracker"],
    )
    def test_alsh_variants(self, data, tmp_path, kwargs):
        """Every ALSH aux-state path (tables, drift refs) survives resume."""
        t_full, h_full, t_resumed, h_resumed = run_kill_resume(
            data, tmp_path, "alsh", **kwargs
        )
        assert_identical(t_full, h_full, t_resumed, h_resumed, data)

    def test_resume_at_every_kill_point(self, data, tmp_path):
        """The guarantee holds wherever the crash lands, not just mid-run."""
        t_full = build("standard")
        h_full = fit(t_full, data, EPOCHS)
        for kill_at in range(1, EPOCHS + 1):
            d = tmp_path / f"kill{kill_at}"
            t_killed = build("standard")
            fit(t_killed, data, kill_at, checkpoint_every=1, checkpoint_dir=d)
            t_resumed = build("standard")
            h_resumed = fit(
                t_resumed, data, EPOCHS, checkpoint_every=1, checkpoint_dir=d
            )
            assert_identical(t_full, h_full, t_resumed, h_resumed, data)

    def test_checkpoint_every_n_resumes_from_last_multiple(
        self, data, tmp_path
    ):
        t_killed = build("standard")
        fit(t_killed, data, 3, checkpoint_every=2, checkpoint_dir=tmp_path)
        ckpt = load_checkpoint(tmp_path / "standard.ckpt.npz")
        # The final epoch of a run always checkpoints regardless of the
        # interval, so the 3-epoch killed run left a checkpoint at index 2.
        assert ckpt.epoch == 2
        t_full = build("standard")
        h_full = fit(t_full, data, EPOCHS)
        t_resumed = build("standard")
        h_resumed = fit(
            t_resumed, data, EPOCHS, checkpoint_every=2, checkpoint_dir=tmp_path
        )
        assert_identical(t_full, h_full, t_resumed, h_resumed, data)


class TestEarlyStopping:
    def test_early_stop_state_survives_resume(self, data, tmp_path):
        """best_val / patience counters resume exactly, so the resumed run
        stops at the same epoch as the uninterrupted one."""
        kwargs = {"early_stopping_patience": 2}
        t_full = build("standard")
        h_full = fit(t_full, data, 40, **kwargs)

        stop_epoch = len(h_full.epochs)
        kill_at = max(stop_epoch - 2, 1)
        t_killed = build("standard")
        fit(t_killed, data, kill_at, checkpoint_every=1,
            checkpoint_dir=tmp_path, **kwargs)
        t_resumed = build("standard")
        h_resumed = fit(t_resumed, data, 40, checkpoint_every=1,
                        checkpoint_dir=tmp_path, **kwargs)
        assert len(h_resumed.epochs) == stop_epoch
        assert_identical(t_full, h_full, t_resumed, h_resumed, data)

    def test_resuming_a_stopped_run_is_a_no_op(self, data, tmp_path):
        kwargs = {"early_stopping_patience": 2}
        t = build("standard")
        h = fit(t, data, 40, checkpoint_every=1, checkpoint_dir=tmp_path,
                **kwargs)
        ckpt = load_checkpoint(tmp_path / "standard.ckpt.npz")
        assert ckpt.stopped_early
        t2 = build("standard")
        h2 = fit(t2, data, 40, checkpoint_every=1, checkpoint_dir=tmp_path,
                 **kwargs)
        assert len(h2.epochs) == len(h.epochs)
        np.testing.assert_array_equal(h.losses(), h2.losses())

    def test_resuming_a_finished_run_is_a_no_op(self, data, tmp_path):
        t = build("standard")
        fit(t, data, EPOCHS, checkpoint_every=1, checkpoint_dir=tmp_path)
        t2 = build("standard")
        h2 = fit(t2, data, EPOCHS, checkpoint_every=1, checkpoint_dir=tmp_path)
        assert len(h2.epochs) == EPOCHS
        for a, b in zip(t.net.layers, t2.net.layers):
            np.testing.assert_array_equal(a.W, b.W)


class TestValidationAndCorruption:
    def test_checkpoint_every_requires_dir(self, data):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            fit(build("standard"), data, 2, checkpoint_every=1)

    def test_checkpoint_every_must_be_positive(self, data, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            fit(build("standard"), data, 2,
                checkpoint_every=0, checkpoint_dir=tmp_path)

    def test_method_mismatch_rejected(self, data, tmp_path):
        fit(build("standard"), data, 2, checkpoint_every=1,
            checkpoint_dir=tmp_path, checkpoint_tag="shared")
        with pytest.raises(ValueError, match="standard"):
            fit(build("dropout"), data, EPOCHS, checkpoint_every=1,
                checkpoint_dir=tmp_path, checkpoint_tag="shared")

    def test_architecture_mismatch_rejected(self, data, tmp_path):
        fit(build("standard"), data, 2, checkpoint_every=1,
            checkpoint_dir=tmp_path)
        other = make_trainer("standard", MLP([12, 8, 3], seed=7), seed=11)
        with pytest.raises(ValueError, match="missing arrays|shape mismatch"):
            other.fit(data["x"], data["y"], epochs=EPOCHS, batch_size=16,
                      checkpoint_every=1, checkpoint_dir=tmp_path,
                      checkpoint_tag="standard")

    def test_resume_false_ignores_existing_checkpoint(self, data, tmp_path):
        t1 = build("standard")
        fit(t1, data, 2, checkpoint_every=1, checkpoint_dir=tmp_path)
        t2 = build("standard")
        h2 = fit(t2, data, 2, checkpoint_every=1, checkpoint_dir=tmp_path,
                 resume=False)
        # A full re-run from epoch 0, not a no-op resume.
        assert len(h2.epochs) == 2
        for a, b in zip(t1.net.layers, t2.net.layers):
            np.testing.assert_array_equal(a.W, b.W)

    @pytest.mark.parametrize("keep_fraction", [0.3, 0.7])
    def test_truncated_checkpoint_fails_cleanly(
        self, data, tmp_path, keep_fraction
    ):
        """A mid-file truncation (torn disk write without the atomic
        rename) surfaces as a clear ValueError, not a numpy traceback."""
        fit(build("standard"), data, 2, checkpoint_every=1,
            checkpoint_dir=tmp_path)
        path = tmp_path / "standard.ckpt.npz"
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * keep_fraction)])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            fit(build("standard"), data, EPOCHS, checkpoint_every=1,
                checkpoint_dir=tmp_path)

    def test_adaptive_dropout_config_mismatch_rejected(self, data, tmp_path):
        fit(build("adaptive_dropout"), data, 2, checkpoint_every=1,
            checkpoint_dir=tmp_path)
        changed = build("adaptive_dropout", alpha=2.0)
        with pytest.raises(ValueError, match="alpha"):
            fit(changed, data, EPOCHS, checkpoint_every=1,
                checkpoint_dir=tmp_path)
