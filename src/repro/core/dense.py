"""Full-width training: the layer loop standard, standout and MC-approx share.

Standard is the bare loop (on one-row batches).  The other two are exact
backpropagation with sampling inside the products (§4.2, Figure 2):
adaptive dropout (standout) only masks a hidden activation, and MC-approx
only estimates the weight-gradient and delta products.
:class:`DenseLoopTrainer` owns the loop; a subclass overrides its hooks.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..backend import active_backend
from .base import Trainer

__all__ = ["DenseLoopTrainer"]


class DenseLoopTrainer(Trainer):
    """Full-width forward, then a backward pass that updates each layer
    as soon as its gradient and the delta it sends back, both read from
    its pre-update weights, exist.  The hooks default to the exact
    products, which dispatch through the active compute backend.
    """

    def _hidden_preactivation(self, layer, a, rng, record: bool) -> np.ndarray:
        """Pre-activation ``a W + b`` of a hidden layer (see :meth:`_forward`)."""
        return layer.forward(a)

    def _mask(self, z: np.ndarray, rng) -> Optional[np.ndarray]:
        """Mask of a hidden activation drawn right after its ``z``, or None."""
        return None

    def _weight_gradients(self, layer, a_prev, delta):
        """``(dL/dW, dL/db)`` of ``layer`` given its ``delta``.

        In a one-row step dL/dW is the outer product ``a ⊗ δ``; the hook
        returns its row ``a`` instead (one row, 2-D), and
        :meth:`~repro.core.base.Trainer._update_weights` applies it
        without building the product.
        """
        if len(a_prev) == 1:
            return a_prev, delta.sum(axis=0)
        return layer.weight_gradients(a_prev, delta)

    def _backprop_delta(self, layer, delta) -> np.ndarray:
        """dL/da of ``layer``'s input, through its pre-update ``W``."""
        return layer.backprop_delta(delta)

    def _record_step(self, batch: int, masks: List[Optional[np.ndarray]]) -> None:
        """Work counters of one step; every product here is dense."""
        self._record_step_flops(batch, [layer.n_out for layer in self.net.layers])

    def _forward(self, x: np.ndarray, rng=None, record: bool = True):
        """Full-width forward; returns ``(acts, zs, masks, logits)``.

        ``acts[i]`` is layer ``i``'s input (masked where a mask applies),
        ``zs[i]`` hidden layer ``i``'s pre-activation and ``masks[i]`` its
        mask or None.  Training draws from ``self.rng``; a quality probe
        passes its own ``rng`` and ``record=False``.
        """
        rng = self.rng if rng is None else rng
        layers = self.net.layers
        act = self.net.hidden_activation
        acts, zs, masks = [x], [], []
        a = x
        for layer in layers[:-1]:
            z = self._hidden_preactivation(layer, a, rng, record)
            mask = self._mask(z, rng)
            a = active_backend().apply_activation(act, z)
            if mask is not None:
                a = a * mask
            zs.append(z)
            masks.append(mask)
            acts.append(a)
        return acts, zs, masks, layers[-1].forward(a)

    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        layers = self.net.layers
        act = self.net.hidden_activation
        with self._backend_scope():
            with self._time_forward():
                acts, zs, masks, logits = self._forward(x)
                loss, delta = self._head(logits, y)

            with self._time_backward():
                for i in range(len(layers) - 1, -1, -1):
                    layer = layers[i]
                    g_w, g_b = self._weight_gradients(layer, acts[i], delta)
                    layer_delta = delta
                    if i > 0:
                        da = self._backprop_delta(layer, delta)
                        if masks[i - 1] is not None:
                            # A sampled mask is a constant of the gradient
                            # (standout takes no derivative through π).
                            da = da * masks[i - 1]
                        delta = da * act.derivative(zs[i - 1])
                    if len(x) == 1:
                        self._update_weights(("W", i), layer.W, g_w, layer_delta)
                    else:
                        self._update(("W", i), layer.W, g_w)
                    self._update(("b", i), layer.b, g_b)
        if self.obs.enabled:
            self._record_step(x.shape[0], masks)
        return loss

    def probe_approx_forward(self, x, rng):
        """The forward of training, read-only.

        Layout matches :meth:`Trainer.probe_exact_forward`, whose exact
        products it shares.  Masks and sampled products draw from the
        probe's ``rng`` with ``record=False``, so a probe changes no
        trainer state or RNG stream and adds to no sampler counter.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        acts, _, _, logits = self._forward(x, rng=rng, record=False)
        return acts[1:] + [logits]
