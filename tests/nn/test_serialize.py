"""Model archives: MLP round trips and the one reader's refusals.

Two archives in ``tests/fixtures`` were written by the last version that
still saved other models, with::

    extractor = ConvFeatureExtractor(in_channels=1, channels=(2,), seed=0)
    head = MLP([extractor.feature_dim(8, 8), 6, 3], seed=0)
    save_conv(ConvClassifier(extractor, head), "conv_classifier")
    save_mlp(MLP([4, 3, 2], hidden_activation="tanh", seed=0), "mlp_tanh")

Only MLPs with ReLU hidden layers under a log-softmax output load now;
both archives must be refused in one line that names the file.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.nn.activations import LogSoftmax, ReLU
from repro.nn.checkpoint import TrainerCheckpoint, load_checkpoint, save_checkpoint
from repro.nn.network import MLP
from repro.nn.serialize import load_mlp, save_mlp
from repro.serve.registry import load_servable

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
REFUSED = {
    "conv_classifier": "holds a 'conv_classifier' archive, expected 'mlp'",
    "mlp_tanh": "hidden_activation is 'tanh'",
}


class TestRoundTrip:
    def test_weights_preserved(self, tmp_path, rng):
        net = MLP([8, 6, 4], seed=3)
        path = save_mlp(net, tmp_path / "model")
        loaded = load_mlp(path)
        assert loaded.layer_sizes == net.layer_sizes
        for la, lb in zip(net.layers, loaded.layers):
            np.testing.assert_array_equal(la.W, lb.W)
            np.testing.assert_array_equal(la.b, lb.b)

    def test_predictions_identical(self, tmp_path, rng):
        net = MLP([8, 16, 3], seed=0)
        x = rng.normal(size=(10, 8))
        path = save_mlp(net, tmp_path / "model.npz")
        loaded = load_mlp(path)
        np.testing.assert_array_equal(net.predict(x), loaded.predict(x))

    def test_activations_preserved(self, tmp_path):
        """The meta entry still names the (now constant) activations."""
        path = save_mlp(MLP([4, 3, 2], seed=0), tmp_path / "m")
        meta = json.loads(np.load(path)["meta"].tobytes().decode())
        assert meta["hidden_activation"] == "relu"
        assert meta["output_activation"] == "log_softmax"
        loaded = load_mlp(path)
        assert isinstance(loaded.hidden_activation, ReLU)
        assert isinstance(loaded.output_activation, LogSoftmax)

    def test_suffix_appended(self, tmp_path):
        path = save_mlp(MLP([4, 2], seed=0), tmp_path / "model")
        assert path.suffix == ".npz"

    def test_trained_model_round_trip(self, tmp_path, tiny_dataset):
        from repro.core.standard import StandardTrainer

        net = MLP([tiny_dataset.input_dim, 16, tiny_dataset.n_classes], seed=0)
        StandardTrainer(net, lr=1e-2, seed=1).fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=2, batch_size=20
        )
        loaded = load_mlp(save_mlp(net, tmp_path / "trained"))
        np.testing.assert_array_equal(
            net.predict(tiny_dataset.x_test), loaded.predict(tiny_dataset.x_test)
        )


class TestKindMismatch:
    def test_load_mlp_rejects_conv_archive(self):
        path = FIXTURES / "conv_classifier.npz"
        with pytest.raises(ValueError, match="conv_classifier") as err:
            load_mlp(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("loader", [load_mlp, load_servable])
    @pytest.mark.parametrize("fixture", sorted(REFUSED))
    def test_archives_of_other_models_are_refused_in_one_line(
        self, loader, fixture
    ):
        path = FIXTURES / f"{fixture}.npz"
        with pytest.raises(ValueError, match=REFUSED[fixture]) as err:
            loader(path)
        assert str(err.value).startswith(str(path))
        assert "\n" not in str(err.value)

    def test_unknown_format_version(self, tmp_path):
        meta = {"format_version": 2, "kind": "mlp", "layer_sizes": [4, 2],
                "hidden_activation": "relu", "output_activation": "log_softmax"}
        path = tmp_path / "future.npz"
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), np.uint8))
        with pytest.raises(ValueError, match="unsupported format version 2"):
            load_mlp(path)

    def test_archive_without_kind_is_an_mlp(self, tmp_path):
        """Archives written before ``kind`` existed were all MLPs."""
        net = MLP([4, 3, 2], seed=2)
        meta = {"format_version": 1, "layer_sizes": [4, 3, 2],
                "hidden_activation": "relu", "output_activation": "log_softmax"}
        path = tmp_path / "old.npz"
        np.savez(
            path, meta=np.frombuffer(json.dumps(meta).encode(), np.uint8),
            **{f"{n}{i}": getattr(layer, n)
               for i, layer in enumerate(net.layers) for n in ("W", "b")},
        )
        loaded = load_mlp(path)
        for la, lb in zip(net.layers, loaded.layers):
            np.testing.assert_array_equal(la.W, lb.W)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mlp(tmp_path / "ghost.npz")

    def test_not_a_model(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(ValueError, match="not a saved model"):
            load_mlp(path)

    def test_creates_parent_dirs(self, tmp_path):
        path = save_mlp(MLP([4, 2], seed=0), tmp_path / "a" / "b" / "model")
        assert path.exists()


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, tmp_path):
        from repro.nn.serialize import atomic_savez

        path = tmp_path / "model.npz"
        for _ in range(3):
            atomic_savez(path, {"x": np.arange(4)})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]

    def test_failed_write_preserves_previous_archive(self, tmp_path):
        """A crash mid-save must leave the old archive intact."""
        from repro.nn.serialize import atomic_savez

        path = tmp_path / "model.npz"
        atomic_savez(path, {"x": np.arange(4)})

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("boom mid-write")

        with pytest.raises(RuntimeError):
            atomic_savez(path, {"x": np.array([Unpicklable()], dtype=object)})
        loaded = np.load(path)
        np.testing.assert_array_equal(loaded["x"], np.arange(4))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]

    def test_save_mlp_is_atomic(self, tmp_path):
        path = save_mlp(MLP([4, 3, 2], seed=0), tmp_path / "model")
        save_mlp(MLP([4, 3, 2], seed=1), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]


class TestCorruptArchives:
    @pytest.mark.parametrize("keep_fraction", [0.2, 0.6, 0.95])
    def test_truncated_mlp_archive(self, tmp_path, keep_fraction):
        path = save_mlp(MLP([16, 8, 4], seed=0), tmp_path / "model")
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * keep_fraction)])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_mlp(path)

    def test_truncated_conv_archive(self, tmp_path):
        """A truncated file is corrupt before it is of the wrong kind."""
        path = tmp_path / "conv.npz"
        blob = (FIXTURES / "conv_classifier.npz").read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_mlp(path)

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"\x00\x01 definitely not a zip")
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_mlp(path)

    def test_missing_layer_arrays(self, tmp_path):
        """A valid zip with members deleted fails with the model error,
        not a KeyError."""
        import json

        meta = {"format_version": 1, "kind": "mlp", "layer_sizes": [4, 3, 2],
                "hidden_activation": "relu", "output_activation": "log_softmax"}
        path = tmp_path / "partial.npz"
        np.savez(
            path,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            W0=np.zeros((4, 3)), b0=np.zeros(3),
        )
        with pytest.raises(ValueError, match="layer 1 arrays missing"):
            load_mlp(path)


def _checkpoint(path):
    return save_checkpoint(
        TrainerCheckpoint(method="standard", epoch=1,
                          arrays={"net.W0": np.zeros((2, 2))}),
        path,
    )


class TestOneReader:
    """``load_mlp``, ``load_servable`` and ``load_checkpoint`` share it."""

    @pytest.mark.parametrize(
        "writer, loader",
        [
            (lambda p: save_mlp(MLP([4, 3, 2], seed=0), p), load_mlp),
            (lambda p: save_mlp(MLP([4, 3, 2], seed=0), p), load_servable),
            (_checkpoint, load_checkpoint),
        ],
        ids=["load_mlp", "load_servable", "load_checkpoint"],
    )
    @pytest.mark.parametrize(
        "meta", [b"{not json", b"\xff\xfe", b"[1, 2]"],
        ids=["json", "utf8", "not-an-object"],
    )
    def test_corrupt_meta_is_one_line_naming_the_path(
        self, tmp_path, writer, loader, meta
    ):
        path = writer(tmp_path / "badmeta.npz")
        arrays = dict(np.load(path))
        arrays["meta"] = np.frombuffer(meta, dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="corrupt meta entry") as err:
            loader(path)
        assert str(err.value).startswith(str(path))
        assert "\n" not in str(err.value)

    def test_meta_without_a_field_is_corrupt(self, tmp_path):
        meta = {"format_version": 1, "kind": "mlp", "layer_sizes": [4, 2]}
        path = tmp_path / "partial.npz"
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), np.uint8))
        with pytest.raises(ValueError, match="no 'hidden_activation'"):
            load_mlp(path)

    def test_meta_keys_are_unchanged_on_disk(self, tmp_path):
        """Archives written here carry the keys older readers expect."""
        mlp = save_mlp(MLP([4, 3, 2], seed=0), tmp_path / "m")
        ckpt = _checkpoint(tmp_path / "c.npz")
        keys = [
            list(json.loads(np.load(p)["meta"].tobytes().decode()))
            for p in (mlp, ckpt)
        ]
        assert keys == [
            ["format_version", "kind", "layer_sizes", "hidden_activation",
             "output_activation"],
            ["format_version", "kind", "method", "epoch", "stopped_early",
             "payload"],
        ]
        assert list(np.load(mlp).files) == ["meta", "W0", "b0", "W1", "b1"]
