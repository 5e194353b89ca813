"""Finite-difference verification of every hand-written gradient.

The repo deliberately has no autograd (the sampling methods work *inside*
the matrix products), so the exact backward passes are the ground truth
every approximation is compared against — they must be provably right.
These tests check, by central differences in float64:

* ``MLP.backward`` through its ReLU hidden layers (ReLU's kink is
  measure-zero under the random continuous inputs used);
* the fused log-softmax + NLL logit gradient the trainers consume;
* the conv substrate: ``Conv2D`` gradients w.r.t. kernels, bias and input.
"""

import numpy as np
import pytest

from repro.core.registry import make_trainer
from repro.nn.activations import LogSoftmax
from repro.nn.conv import Conv2D
from repro.nn.losses import NLLLoss
from repro.nn.network import MLP

EPS = 1e-6
TOL = 1e-5


def numerical_gradient(f, param):
    """Central-difference gradient of scalar ``f()`` w.r.t. ``param``.

    ``param`` is perturbed in place element by element (the nets here are
    tiny, so the O(size) function evaluations stay cheap), in either
    memory layout: a trainer keeps ``W`` column-major, and a row-major
    ``reshape(-1)`` of that would perturb a copy.
    """
    grad = np.zeros_like(param)
    flat = param.reshape(-1, order="A")
    gflat = grad.reshape(-1, order="A")
    assert np.shares_memory(flat, param) and np.shares_memory(gflat, grad)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + EPS
        hi = f()
        flat[i] = original - EPS
        lo = f()
        flat[i] = original
        gflat[i] = (hi - lo) / (2 * EPS)
    return grad


def relative_error(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return np.abs(analytic - numeric).max() / scale


class TestMLPBackward:
    def test_weight_and_bias_gradients(self):
        rng = np.random.default_rng(42)
        net = MLP([6, 5, 4, 3], seed=0)
        x = rng.normal(size=(7, 6))
        y = rng.integers(0, 3, size=7)

        grads = net.backward(net.forward(x), y)
        for layer, (g_w, g_b) in zip(net.layers, grads):
            num_w = numerical_gradient(lambda: net.loss(x, y), layer.W)
            num_b = numerical_gradient(lambda: net.loss(x, y), layer.b)
            assert relative_error(g_w, num_w) < TOL
            assert relative_error(g_b, num_b) < TOL

    def test_deep_relu_network(self):
        """Depth compounds any systematic gradient error; check at k=4."""
        rng = np.random.default_rng(3)
        net = MLP([5, 4, 4, 4, 4, 3], seed=1)
        x = rng.normal(size=(5, 5))
        y = rng.integers(0, 3, size=5)
        grads = net.backward(net.forward(x), y)
        for layer, (g_w, _) in zip(net.layers, grads):
            num_w = numerical_gradient(lambda: net.loss(x, y), layer.W)
            assert relative_error(g_w, num_w) < TOL

    @pytest.mark.parametrize("batch", [1, 7])
    def test_network_converted_by_a_trainer(self, batch):
        """A trainer's network holds ``W`` column-major; so do its grads."""
        rng = np.random.default_rng(8)
        net = MLP([6, 5, 4, 3], seed=2)
        make_trainer("standard", net, seed=0)
        x = rng.normal(size=(batch, 6))
        y = rng.integers(0, 3, size=batch)

        grads = net.backward(net.forward(x), y)
        for layer, (g_w, g_b) in zip(net.layers, grads):
            assert layer.W.flags.f_contiguous and not layer.W.flags.c_contiguous
            assert g_w.flags.f_contiguous
            num_w = numerical_gradient(lambda: net.loss(x, y), layer.W)
            num_b = numerical_gradient(lambda: net.loss(x, y), layer.b)
            assert relative_error(g_w, num_w) < TOL
            assert relative_error(g_b, num_b) < TOL


class TestLossGradients:
    def test_fused_logit_gradient(self):
        """The gradient the trainers actually consume: d NLL/d logits."""
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        analytic = NLLLoss.fused_logit_gradient(logits, y)
        numeric = numerical_gradient(
            lambda: NLLLoss().value(LogSoftmax().forward(logits), y), logits
        )
        assert relative_error(analytic, numeric) < TOL


class TestConvGradients:
    """Conv2D under a fixed linear readout: loss = sum(out * R)."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.conv = Conv2D(2, 3, field=3, stride=1, pad=1, rng=rng)
        self.x = rng.normal(size=(2, 2, 6, 6))
        self.readout = rng.normal(size=(2, 3, 6, 6))

    def _loss(self):
        return float((self.conv.forward(self.x) * self.readout).sum())

    def test_kernel_gradients(self):
        self._loss()
        self.conv.backward(self.readout)
        analytic = self.conv.grad_kernels.copy()
        numeric = numerical_gradient(self._loss, self.conv.kernels)
        assert relative_error(analytic, numeric) < TOL

    def test_bias_gradients(self):
        self._loss()
        self.conv.backward(self.readout)
        analytic = self.conv.grad_bias.copy()
        numeric = numerical_gradient(self._loss, self.conv.bias)
        assert relative_error(analytic, numeric) < TOL

    def test_input_gradients(self):
        self._loss()
        analytic = self.conv.backward(self.readout)
        numeric = numerical_gradient(self._loss, self.x)
        assert relative_error(analytic, numeric) < TOL

    def test_strided_no_pad_kernels(self):
        rng = np.random.default_rng(9)
        conv = Conv2D(1, 2, field=2, stride=2, pad=0, rng=rng)
        x = rng.normal(size=(1, 1, 6, 6))
        readout = rng.normal(size=(1, 2, 3, 3))

        def loss():
            return float((conv.forward(x) * readout).sum())

        loss()
        conv.backward(readout)
        analytic = conv.grad_kernels.copy()
        numeric = numerical_gradient(loss, conv.kernels)
        assert relative_error(analytic, numeric) < TOL
