"""Unit tests for repro.nn.conv — im2col, conv, pooling gradients."""

import numpy as np
import pytest

from repro.nn.conv import (
    Conv2D,
    ConvFeatureExtractor,
    Flatten,
    MaxPool2D,
    col2im,
    im2col,
)


class TestIm2Col:
    def test_shapes(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols, (oh, ow) = im2col(x, field=3, stride=1, pad=1)
        assert (oh, ow) == (8, 8)
        assert cols.shape == (2 * 64, 3 * 9)

    def test_stride_two(self, rng):
        x = rng.normal(size=(1, 1, 8, 8))
        cols, (oh, ow) = im2col(x, field=2, stride=2, pad=0)
        assert (oh, ow) == (4, 4)

    def test_identity_kernel_recovers_input(self, rng):
        """1x1 conv via im2col must reproduce the input values."""
        x = rng.normal(size=(1, 1, 4, 4))
        cols, _ = im2col(x, field=1)
        np.testing.assert_allclose(cols.reshape(4, 4), x[0, 0])

    def test_col2im_is_adjoint(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the adjoint property."""
        x = rng.normal(size=(1, 2, 6, 6))
        cols, _ = im2col(x, field=3, stride=1, pad=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = col2im(y, x.shape, field=3, stride=1, pad=1)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_invalid_geometry(self, rng):
        with pytest.raises(ValueError):
            im2col(rng.normal(size=(1, 1, 2, 2)), field=5)


class TestConv2D:
    def test_output_shape(self, rng):
        conv = Conv2D(3, 8, field=3, pad=1, rng=rng)
        out = conv.forward(rng.normal(size=(2, 3, 16, 16)))
        assert out.shape == (2, 8, 16, 16)

    def test_matches_direct_convolution(self, rng):
        """Compare against a naive nested-loop convolution."""
        conv = Conv2D(2, 3, field=3, pad=0, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        out = conv.forward(x)
        for oc in range(3):
            for i in range(3):
                for j in range(3):
                    patch = x[0, :, i : i + 3, j : j + 3]
                    expected = (patch * conv.kernels[oc]).sum() + conv.bias[oc]
                    assert out[0, oc, i, j] == pytest.approx(expected, rel=1e-10)

    def test_gradients_match_finite_difference(self, rng):
        conv = Conv2D(1, 2, field=3, pad=1, rng=rng)
        x = rng.normal(size=(1, 1, 4, 4))
        grad_out = rng.normal(size=(1, 2, 4, 4))

        def objective():
            return float((conv.forward(x) * grad_out).sum())

        conv.forward(x)
        grad_x = conv.backward(grad_out)
        eps = 1e-6
        # kernel gradient spot checks
        for idx in [(0, 0, 0, 0), (1, 0, 1, 2), (0, 0, 2, 2)]:
            orig = conv.kernels[idx]
            conv.kernels[idx] = orig + eps
            up = objective()
            conv.kernels[idx] = orig - eps
            down = objective()
            conv.kernels[idx] = orig
            assert conv.grad_kernels[idx] == pytest.approx(
                (up - down) / (2 * eps), abs=1e-4
            )
        # input gradient spot checks
        for idx in [(0, 0, 0, 0), (0, 0, 3, 3), (0, 0, 1, 2)]:
            orig = x[idx]
            x[idx] = orig + eps
            up = objective()
            x[idx] = orig - eps
            down = objective()
            x[idx] = orig
            assert grad_x[idx] == pytest.approx((up - down) / (2 * eps), abs=1e-4)

    def test_backward_before_forward_raises(self, rng):
        conv = Conv2D(1, 1, field=3, rng=rng)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 1, 2, 2)))

    def test_bias_gradient(self, rng):
        conv = Conv2D(1, 2, field=1, rng=rng)
        x = rng.normal(size=(2, 1, 3, 3))
        grad_out = rng.normal(size=(2, 2, 3, 3))
        conv.forward(x)
        conv.backward(grad_out)
        np.testing.assert_allclose(
            conv.grad_bias, grad_out.sum(axis=(0, 2, 3)), rtol=1e-10
        )


class TestMaxPool:
    def test_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_max(self):
        pool = MaxPool2D(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        pool.forward(x)
        g = pool.backward(np.array([[[[10.0]]]]))
        np.testing.assert_array_equal(g, [[[[0, 0], [0, 10.0]]]])

    def test_tie_splits_gradient(self):
        pool = MaxPool2D(2)
        x = np.ones((1, 1, 2, 2))
        pool.forward(x)
        g = pool.backward(np.array([[[[4.0]]]]))
        np.testing.assert_allclose(g, np.ones((1, 1, 2, 2)))

    def test_gradient_mass_conserved(self, rng):
        pool = MaxPool2D(2)
        x = rng.normal(size=(2, 3, 6, 6))
        pool.forward(x)
        grad_out = rng.normal(size=(2, 3, 3, 3))
        g = pool.backward(grad_out)
        assert g.sum() == pytest.approx(grad_out.sum(), rel=1e-10)

    def test_indivisible_input_raises(self, rng):
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(rng.normal(size=(1, 1, 5, 5)))


class TestFlatten:
    def test_round_trip(self, rng):
        f = Flatten()
        x = rng.normal(size=(2, 3, 4, 4))
        flat = f.forward(x)
        assert flat.shape == (2, 48)
        np.testing.assert_array_equal(f.backward(flat), x)


class TestFeatureExtractor:
    def test_feature_dim_matches_forward(self, rng):
        fx = ConvFeatureExtractor(in_channels=3, channels=(4, 8), seed=0)
        x = rng.normal(size=(2, 3, 32, 32))
        feats = fx.forward(x)
        assert feats.shape == (2, fx.feature_dim(32, 32))

    def test_backward_shape(self, rng):
        fx = ConvFeatureExtractor(in_channels=1, channels=(4,), seed=0)
        x = rng.normal(size=(2, 1, 8, 8))
        feats = fx.forward(x)
        g = fx.backward(np.ones_like(feats))
        assert g.shape == x.shape

    def test_relu_masks_applied(self, rng):
        """Features are outputs of ReLU stages — non-negative after pooling
        of non-negative maps."""
        fx = ConvFeatureExtractor(in_channels=1, channels=(4,), seed=0)
        feats = fx.forward(rng.normal(size=(3, 1, 8, 8)))
        assert (feats >= 0).all()


class TestConvClassifier:
    def _data(self, rng, n=60):
        """Images whose class is encoded in a localised bright patch."""
        imgs = rng.normal(scale=0.3, size=(n, 1, 8, 8))
        labels = rng.integers(0, 2, n)
        imgs[labels == 0, 0, :4, :4] += 2.0
        imgs[labels == 1, 0, 4:, 4:] += 2.0
        return imgs, labels

    def test_validation(self, rng):
        from repro.nn.conv import ConvClassifier, ConvFeatureExtractor
        from repro.nn.network import MLP

        fx = ConvFeatureExtractor(1, (4,), seed=0)
        head = MLP([fx.feature_dim(8, 8), 2], seed=1)
        with pytest.raises(ValueError):
            ConvClassifier(fx, head, lr=0.0)
        with pytest.raises(ValueError):
            ConvClassifier(fx, head).fit(np.zeros((2, 1, 8, 8)),
                                         np.zeros(2, dtype=int), epochs=0)

    def test_joint_training_reduces_loss(self, rng):
        from repro.nn.conv import ConvClassifier, ConvFeatureExtractor
        from repro.nn.network import MLP

        imgs, labels = self._data(rng)
        fx = ConvFeatureExtractor(1, (4,), seed=0)
        head = MLP([fx.feature_dim(8, 8), 16, 2], seed=1)
        model = ConvClassifier(fx, head, lr=5e-2)
        losses = model.fit(imgs, labels, epochs=6, batch_size=10, seed=2)
        assert losses[-1] < losses[0]

    def test_learns_localised_pattern(self, rng):
        from repro.nn.conv import ConvClassifier, ConvFeatureExtractor
        from repro.nn.network import MLP

        imgs, labels = self._data(rng, n=80)
        fx = ConvFeatureExtractor(1, (4,), seed=0)
        head = MLP([fx.feature_dim(8, 8), 16, 2], seed=1)
        model = ConvClassifier(fx, head, lr=5e-2)
        model.fit(imgs, labels, epochs=8, batch_size=10, seed=2)
        test_imgs, test_labels = self._data(np.random.default_rng(9), n=40)
        acc = (model.predict(test_imgs) == test_labels).mean()
        assert acc > 0.8

    def test_one_backward_loop_matches_the_two_pass_step(self, rng):
        """``train_batch`` walks the head once; the weights stay bitwise
        those of the step that ran ``MLP.backward`` and then the delta
        chain again down to the features."""
        from repro.nn.conv import ConvClassifier, ConvFeatureExtractor
        from repro.nn.losses import NLLLoss
        from repro.nn.network import MLP

        def two_pass_step(model, images, labels):
            cache = model.head.forward(model.extractor.forward(images))
            loss = NLLLoss().value(cache.output, labels)
            grads = model.head.backward(cache, labels)
            delta = NLLLoss.fused_logit_gradient(cache.zs[-1], labels)
            for i in range(len(model.head.layers) - 1, 0, -1):
                da = model.head.layers[i].backprop_delta(delta)
                delta = da * model.head.hidden_activation.derivative(
                    cache.zs[i - 1]
                )
            model.extractor.backward(model.head.layers[0].backprop_delta(delta))
            for conv, _ in model.extractor.stages:
                conv.kernels -= model.lr * conv.grad_kernels
                conv.bias -= model.lr * conv.grad_bias
            for (g_w, g_b), layer in zip(grads, model.head.layers):
                layer.W -= model.lr * g_w
                layer.b -= model.lr * g_b
            return loss

        def build():
            fx = ConvFeatureExtractor(1, (4, 3), seed=0)
            head = MLP([fx.feature_dim(8, 8), 16, 8, 2], seed=1)
            return ConvClassifier(fx, head, lr=5e-2)

        imgs, labels = self._data(rng)
        model, reference = build(), build()
        for start in range(0, 40, 10):
            batch = imgs[start:start + 10], labels[start:start + 10]
            assert model.train_batch(*batch) == two_pass_step(reference, *batch)
        for (conv, _), (ref, _) in zip(model.extractor.stages,
                                       reference.extractor.stages):
            assert np.array_equal(conv.kernels, ref.kernels)
            assert np.array_equal(conv.bias, ref.bias)
        for layer, ref in zip(model.head.layers, reference.head.layers):
            assert np.array_equal(layer.W, ref.W)
            assert np.array_equal(layer.b, ref.b)

    def test_features_shape(self, rng):
        from repro.nn.conv import ConvClassifier, ConvFeatureExtractor
        from repro.nn.network import MLP

        fx = ConvFeatureExtractor(1, (4,), seed=0)
        head = MLP([fx.feature_dim(8, 8), 2], seed=1)
        model = ConvClassifier(fx, head)
        feats = model.features(rng.normal(size=(3, 1, 8, 8)))
        assert feats.shape == (3, fx.feature_dim(8, 8))
