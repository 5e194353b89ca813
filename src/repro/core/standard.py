"""STANDARD — exact training, the paper's reference point (§8.3).

Exact feedforward and backpropagation with no sampling; every other method
is measured against this in accuracy (Table 2, Figure 7) and per-epoch
time (Tables 3–4, Figure 8).
"""

from __future__ import annotations

import numpy as np

from .dense import DenseLoopTrainer

__all__ = ["StandardTrainer"]


class StandardTrainer(DenseLoopTrainer):
    """Plain SGD/minibatch training with exact matrix products.

    A one-row batch runs the shared layer loop with no hook overridden, so
    its weight steps never build a gradient; its probes read the loop's
    exact forward, so the forward-error probe measures zero drift.  A
    multi-row batch takes every layer's gradient from :meth:`MLP.backward
    <repro.nn.network.MLP.backward>` before the first update.
    """

    name = "standard"

    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        x = self._as_batch(x)
        if len(x) == 1:
            return super().train_batch(x, y)
        with self._backend_scope():
            with self._time_forward():
                cache = self.net.forward(x)
                loss = self.loss_fn.value(cache.output, y)
            with self._time_backward():
                grads = self.net.backward(cache, y)
                for i, (g_w, g_b) in enumerate(grads):
                    layer = self.net.layers[i]
                    self._update(("W", i), layer.W, g_w)
                    self._update(("b", i), layer.b, g_b)
        # Exact training: the dense-equivalent work IS the actual work.
        self._record_step_flops(len(x), [layer.n_out for layer in self.net.layers])
        return loss
