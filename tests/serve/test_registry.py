"""Model registry: immutable servables, digests, pins, corrupt archives."""

import numpy as np
import pytest

from repro.nn.conv import ConvClassifier, ConvFeatureExtractor
from repro.nn.network import MLP
from repro.nn.serialize import save_mlp
from repro.serve.registry import (
    ModelRegistry,
    ServableModel,
    load_servable,
    weights_digest,
)


def _mlp(seed=0, sizes=(6, 10, 4)):
    return MLP(list(sizes), seed=seed)


def _conv(seed=0, image=8):
    extractor = ConvFeatureExtractor(
        in_channels=1, channels=(3,), field=3, pool=2, seed=seed
    )
    head = MLP([extractor.feature_dim(image, image), 8, 3], seed=seed)
    return ConvClassifier(extractor, head)


class TestWeightsDigest:
    def test_deterministic(self):
        net = _mlp(seed=5)
        arrays = [net.layers[0].W, net.layers[0].b]
        assert weights_digest(arrays) == weights_digest(arrays)

    def test_sensitive_to_content(self):
        net = _mlp(seed=5)
        before = weights_digest([net.layers[0].W])
        bumped = net.layers[0].W.copy()
        bumped[0, 0] += 1e-9
        assert weights_digest([bumped]) != before

    def test_sensitive_to_shape(self):
        flat = np.arange(6.0)
        assert weights_digest([flat.reshape(2, 3)]) != weights_digest(
            [flat.reshape(3, 2)]
        )


class TestServableModel:
    def test_roundtrip_predictions_match(self, tmp_path):
        net = _mlp(seed=1)
        x = np.random.default_rng(0).normal(size=(9, 6))
        expected = net.predict_logproba(x)
        servable = load_servable(save_mlp(net, tmp_path / "m"))
        np.testing.assert_array_equal(servable.predict_logproba(x), expected)

    def test_weights_frozen(self, tmp_path):
        servable = load_servable(save_mlp(_mlp(), tmp_path / "m"))
        layer = servable.output_layer()
        with pytest.raises(ValueError):
            layer.W[0, 0] = 1.0
        with pytest.raises(ValueError):
            layer.b[0] = 1.0

    def test_version_defaults_to_digest(self):
        servable = ServableModel(_mlp(seed=2))
        assert servable.version == servable.digest

    def test_rejects_unknown_model_type(self):
        with pytest.raises(TypeError, match="expected an MLP"):
            ServableModel(object())

    def test_rejects_a_conv_classifier(self):
        model = _conv(seed=4)
        with pytest.raises(TypeError, match="cannot serve a ConvClassifier"):
            ServableModel(model)
        assert model.head.layers[0].W.flags.writeable

    def test_pad_to_smaller_than_batch_rejected(self):
        servable = ServableModel(_mlp())
        x = np.zeros((5, 6))
        with pytest.raises(ValueError, match="exceeds pad_to"):
            servable.predict_logproba(x, pad_to=4)

    def test_padded_forward_slices_back_to_batch(self):
        servable = ServableModel(_mlp(seed=3))
        x = np.random.default_rng(2).normal(size=(3, 6))
        out = servable.predict_logproba(x, pad_to=8)
        assert out.shape == (3, 4)

    def test_padded_rows_bitwise_independent_of_batch(self):
        """The bitwise guarantee: fixed-shape forwards pin each row's bits."""
        servable = ServableModel(_mlp(seed=3))
        x = np.random.default_rng(2).normal(size=(6, 6))
        batched = servable.predict_logproba(x, pad_to=8)
        for i in range(6):
            row = servable.predict_logproba(x[i : i + 1], pad_to=8)
            np.testing.assert_array_equal(row[0], batched[i])

    def test_trunk_forward_matches_manual_hidden_pass(self):
        servable = ServableModel(_mlp(seed=6, sizes=(5, 7, 7, 3)))
        x = np.random.default_rng(3).normal(size=(4, 5))
        trunk = servable.trunk_forward(x)
        assert trunk.shape == (4, 7)
        full = servable.predict_logproba(x)
        out = servable.output_layer()
        logits = trunk @ out.W + out.b
        shifted = logits - logits.max(axis=1, keepdims=True)
        logproba = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(logproba, full, atol=1e-10)


class TestLoadServable:
    def test_reads_the_archive_once(self, tmp_path, monkeypatch):
        path = save_mlp(_mlp(seed=1), tmp_path / "m")
        opened = []
        real_load = np.load

        def counting_load(*args, **kwargs):
            opened.append(args[0])
            return real_load(*args, **kwargs)

        monkeypatch.setattr(np, "load", counting_load)
        servable = load_servable(path)
        assert opened == [path]
        assert servable.digest == ServableModel(_mlp(seed=1)).digest

    def test_digest_pin_mismatch_rejected(self, tmp_path):
        path = save_mlp(_mlp(seed=1), tmp_path / "m")
        with pytest.raises(ValueError, match="does not match the pinned"):
            load_servable(path, version="000000000000")

    def test_digest_pin_match_accepted(self, tmp_path):
        path = save_mlp(_mlp(seed=1), tmp_path / "m")
        pin = load_servable(path).digest
        assert load_servable(path, version=pin).version == pin

    def test_corrupt_archive_rejected(self, tmp_path):
        path = save_mlp(_mlp(), tmp_path / "m")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            load_servable(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an archive at all")
        with pytest.raises(ValueError):
            load_servable(path)


class TestModelRegistry:
    def test_register_and_get(self, tmp_path):
        registry = ModelRegistry()
        registry.register("clf", save_mlp(_mlp(seed=1), tmp_path / "m"))
        assert "clf" in registry
        assert registry.get("clf").name == "clf"
        assert registry.names() == ["clf"]

    def test_register_live_model_and_servable(self):
        registry = ModelRegistry()
        registry.register("a", _mlp(seed=1))
        registry.register("b", ServableModel(_mlp(seed=2)))
        assert len(registry) == 2

    def test_register_refuses_a_non_mlp(self):
        registry = ModelRegistry()
        with pytest.raises(TypeError, match="cannot serve a ConvClassifier"):
            registry.register("clf", _conv())
        assert "clf" not in registry

    def test_get_missing_lists_available(self, tmp_path):
        registry = ModelRegistry()
        registry.register("present", _mlp())
        with pytest.raises(KeyError, match="present"):
            registry.get("absent")

    def test_old_version_stays_retrievable(self, tmp_path):
        registry = ModelRegistry()
        v1 = registry.register("clf", _mlp(seed=1))
        v2 = registry.register("clf", _mlp(seed=2))
        assert registry.get("clf").digest == v2.digest
        assert registry.get("clf", version=v1.version).digest == v1.digest

    def test_get_unknown_version_rejected(self):
        registry = ModelRegistry()
        registry.register("clf", _mlp(seed=1))
        with pytest.raises(KeyError, match="version"):
            registry.get("clf", version="nope")

    def test_register_pin_mismatch_rejected(self, tmp_path):
        registry = ModelRegistry()
        path = save_mlp(_mlp(seed=1), tmp_path / "m")
        with pytest.raises(ValueError):
            registry.register("clf", path, version="000000000000")
        assert "clf" not in registry

    def test_unregister_drops_all_versions(self):
        registry = ModelRegistry()
        v1 = registry.register("clf", _mlp(seed=1))
        registry.register("clf", _mlp(seed=2))
        registry.unregister("clf")
        assert "clf" not in registry
        with pytest.raises(KeyError):
            registry.get("clf", version=v1.version)
