"""Convolutional substrate for the paper's §8.4 convolutional setting.

The paper runs its CIFAR-10 experiment with a convolutional front-end and a
fully connected classifier, *keeping the convolutions exact* and applying the
sampling-based approximation only to the classifier head.  This module
provides that front-end from scratch: im2col-based 2-D convolution, max
pooling and flattening, each with exact forward and backward passes, plus a
:class:`ConvFeatureExtractor` that the experiment harness uses to turn image
tensors into the flat feature vectors the (approximated) MLP head consumes.

Tensors use NCHW layout: ``(batch, channels, height, width)``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..backend import active_backend

__all__ = [
    "im2col",
    "col2im",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "ConvFeatureExtractor",
    "ConvClassifier",
]


def _out_size(size: int, field: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - field) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input {size}, field {field}, "
            f"stride {stride}, pad {pad}"
        )
    return out


def _window_offsets(field: int, stride: int, out_h: int, out_w: int):
    """Row and column indices of every window, ``(out_h*out_w, field²)`` each."""
    i0 = np.repeat(np.arange(field), field)
    j0 = np.tile(np.arange(field), field)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(1, -1) + i1.reshape(-1, 1)
    j = j0.reshape(1, -1) + j1.reshape(-1, 1)
    return i, j


def im2col(
    x: np.ndarray, field: int, stride: int = 1, pad: int = 0
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold sliding windows into matrix rows.

    Returns ``(cols, (out_h, out_w))`` where ``cols`` has shape
    ``(batch * out_h * out_w, channels * field * field)``; a convolution then
    becomes a single dense matmul against the reshaped kernel bank.
    """
    n, c, h, w = x.shape
    out_h = _out_size(h, field, stride, pad)
    out_w = _out_size(w, field, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    i, j = _window_offsets(field, stride, out_h, out_w)
    windows = x[:, :, i, j]  # (n, c, out_h*out_w, field*field)
    cols = windows.transpose(0, 2, 1, 3).reshape(
        n * out_h * out_w, c * field * field
    )
    return cols, (out_h, out_w)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    field: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`im2col` — scatter-add columns back to an image."""
    n, c, h, w = x_shape
    out_h = _out_size(h, field, stride, pad)
    out_w = _out_size(w, field, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    i, j = _window_offsets(field, stride, out_h, out_w)
    windows = cols.reshape(n, out_h * out_w, c, field * field).transpose(
        0, 2, 1, 3
    )
    np.add.at(padded, (slice(None), slice(None), i, j), windows)
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


class Conv2D:
    """2-D convolution with exact forward/backward via im2col."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        field: int,
        stride: int = 1,
        pad: int = 0,
        rng: Optional[np.random.Generator] = None,
    ):
        if min(in_channels, out_channels, field, stride) <= 0:
            raise ValueError("conv dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        fan_in = in_channels * field * field
        self.kernels = rng.normal(
            0.0, np.sqrt(2.0 / fan_in), size=(out_channels, in_channels, field, field)
        )
        self.bias = np.zeros(out_channels)
        self.field = field
        self.stride = stride
        self.pad = pad
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Convolve a NCHW batch; caches intermediates for backward."""
        cols, (out_h, out_w) = im2col(x, self.field, self.stride, self.pad)
        k = self.kernels.reshape(self.kernels.shape[0], -1)  # (out_c, fan_in)
        out = active_backend().matmul_add_bias(cols, k.T, self.bias)
        n = x.shape[0]
        out = out.reshape(n, out_h * out_w, -1).transpose(0, 2, 1)
        out = out.reshape(n, -1, out_h, out_w)
        self._cache = (x.shape, cols)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. input; stores ``grad_kernels``/``grad_bias``."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, cols = self._cache
        n, out_c, out_h, out_w = grad_out.shape
        g = grad_out.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, out_c)
        k = self.kernels.reshape(out_c, -1)
        backend = active_backend()
        self.grad_kernels = backend.grad_cols(g, cols).reshape(
            self.kernels.shape
        )
        self.grad_bias = g.sum(axis=0)
        grad_cols = backend.matmul(g, k)
        return col2im(grad_cols, x_shape, self.field, self.stride, self.pad)


class MaxPool2D:
    """Non-overlapping max pooling with exact backward routing."""

    def __init__(self, size: int = 2):
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        self.size = size
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(f"input {h}x{w} not divisible by pool size {s}")
        blocks = x.reshape(n, c, h // s, s, w // s, s)
        out = blocks.max(axis=(3, 5))
        self._cache = (x, out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, out = self._cache
        s = self.size
        up = np.repeat(np.repeat(out, s, axis=2), s, axis=3)
        mask = (x == up).astype(float)
        # Ties are split evenly so the gradient mass is conserved.
        blocks = mask.reshape(*mask.shape[:2], mask.shape[2] // s, s, mask.shape[3] // s, s)
        counts = blocks.sum(axis=(3, 5), keepdims=True)
        blocks /= counts
        mask = blocks.reshape(x.shape)
        g_up = np.repeat(np.repeat(grad_out, s, axis=2), s, axis=3)
        return g_up * mask


class Flatten:
    """Reshape NCHW feature maps to flat rows (and back in backward)."""

    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)


class ConvFeatureExtractor:
    """A small exact conv stack producing flat features for an MLP head.

    Mirrors the paper's convolutional setting: convolutions stay exact and
    only the fully connected classifier on top is approximated.  Channel
    widths and pooling are configurable; defaults target 32×32×3 inputs
    (the CIFAR-like benchmark).
    """

    def __init__(
        self,
        in_channels: int = 3,
        channels: Sequence[int] = (8, 16),
        field: int = 3,
        pool: int = 2,
        seed: Optional[int] = None,
    ):
        rng = np.random.default_rng(seed)
        self.stages: List[Tuple[Conv2D, MaxPool2D]] = []
        prev = in_channels
        for ch in channels:
            self.stages.append(
                (Conv2D(prev, ch, field, stride=1, pad=field // 2, rng=rng),
                 MaxPool2D(pool))
            )
            prev = ch
        self.flatten = Flatten()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """NCHW images → (batch, n_features) with ReLU between stages."""
        a = x
        self._relu_masks = []
        for conv, pool in self.stages:
            z = conv.forward(a)
            mask = z > 0
            self._relu_masks.append(mask)
            a = pool.forward(z * mask)
        return self.flatten.forward(a)

    def backward(self, grad_features: np.ndarray) -> np.ndarray:
        """Propagate classifier gradient back through the conv stack."""
        g = self.flatten.backward(grad_features)
        for (conv, pool), mask in zip(reversed(self.stages), reversed(self._relu_masks)):
            g = pool.backward(g)
            g = conv.backward(g * mask)
        return g

    def feature_dim(self, height: int, width: int) -> int:
        """Flat feature dimensionality for a given input image size."""
        h, w = height, width
        ch = None
        for conv, pool in self.stages:
            h //= pool.size
            w //= pool.size
            ch = conv.kernels.shape[0]
        return ch * h * w


class ConvClassifier:
    """Conv feature extractor + MLP head trained jointly, exactly.

    This is the substrate for the paper's convolutional setting: the conv
    stack is always trained with exact gradients; after :meth:`fit`, the
    extractor can be frozen and the (re-initialised) classifier head
    handed to any sampling-based trainer from :mod:`repro.core` — exactly
    the "limit the approximation to the classifier" protocol of §8.4.

    Parameters
    ----------
    extractor:
        A :class:`ConvFeatureExtractor` (trained in place).
    head:
        The MLP classifier on top of the flat conv features (its input
        width must equal the extractor's feature dim for the image size).
    lr:
        Learning rate for plain SGD on both parts.
    """

    def __init__(self, extractor: "ConvFeatureExtractor", head, lr: float = 1e-2):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.extractor = extractor
        self.head = head
        self.lr = float(lr)

    def train_batch(self, images: np.ndarray, labels: np.ndarray) -> float:
        """One exact end-to-end SGD step; returns the batch loss."""
        from .losses import NLLLoss

        feats = self.extractor.forward(images)
        cache = self.head.forward(feats)
        loss = NLLLoss().value(cache.output, labels)
        # One backward pass through the head: each layer's (gW, gb), and
        # dL/da of its input, which at layer 0 is the feature delta.
        layers = self.head.layers
        grads = [None] * len(layers)
        delta = NLLLoss.fused_logit_gradient(cache.zs[-1], labels)
        for i in range(len(layers) - 1, -1, -1):
            grads[i] = layers[i].weight_gradients(cache.activations[i], delta)
            da = layers[i].backprop_delta(delta)
            if i > 0:
                delta = da * self.head.hidden_activation.derivative(cache.zs[i - 1])
        self.extractor.backward(da)
        for conv, _ in self.extractor.stages:
            conv.kernels -= self.lr * conv.grad_kernels
            conv.bias -= self.lr * conv.grad_bias
        for (g_w, g_b), layer in zip(grads, self.head.layers):
            layer.W -= self.lr * g_w
            layer.b -= self.lr * g_b
        return loss

    def fit(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        epochs: int = 3,
        batch_size: int = 20,
        seed: Optional[int] = None,
    ) -> List[float]:
        """Joint exact training; returns the mean loss per epoch."""
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        rng = np.random.default_rng(seed)
        n = labels.shape[0]
        epoch_losses = []
        for _ in range(epochs):
            order = rng.permutation(n)
            losses = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                losses.append(self.train_batch(images[idx], labels[idx]))
            epoch_losses.append(float(np.mean(losses)))
        return epoch_losses

    def features(self, images: np.ndarray) -> np.ndarray:
        """Flat conv features for a batch of NCHW images."""
        return self.extractor.forward(images)

    def predict(self, images: np.ndarray) -> np.ndarray:
        """End-to-end class predictions."""
        return self.head.predict(self.features(images))
