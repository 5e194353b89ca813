"""Sampling from the current layer (§5, Figure 2): the shared mechanism.

Dropout, ALSH-approx and the top-k oracle are one mechanism in the paper:
every hidden layer computes only its *active* nodes — a subset of the
columns of ``W`` — in the feedforward pass, and backpropagation updates
only those columns.  They differ only in how a layer's active set is
chosen.  :class:`ColumnSamplingTrainer` owns the mechanism; a subclass
supplies :meth:`~ColumnSamplingTrainer._select_active` plus whatever is
its own (dropout its weight-scaled inference, ALSH its hash tables).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..backend import active_backend
from ..nn.activations import LogSoftmax
from ..obs.counters import SAMPLER_COLS_KEPT, SAMPLER_COLS_POOL
from .base import Trainer

__all__ = ["ColumnSamplingTrainer"]


def _bias_gradient(delta: np.ndarray) -> np.ndarray:
    """dL/db: a one-sample delta itself, a batch's summed over rows."""
    return delta if delta.ndim == 1 else delta.sum(axis=0)


class ColumnSamplingTrainer(Trainer):
    """Column-restricted forward and column-sparse backward.

    A step runs on one sample (1-D ``x``) or on a batch whose rows share
    one active set per layer (2-D ``x``).  The output layer is always
    exact: every class participates.
    """

    #: True when a whole batch trains as one step sharing each layer's
    #: active set (dropout's mask, ALSH-approx's union mode); False when
    #: every sample selects its own, the algorithm as published for
    #: ALSH-approx.
    shared_active_set = False

    def _select_active(
        self,
        layer_idx: int,
        a_prev: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        record: bool = True,
    ) -> np.ndarray:
        """Sorted active node ids of hidden layer ``layer_idx``.

        ``a_prev`` is the layer's input: one sample, or a batch that
        shares the set.  Quality probes pass their own ``rng`` and
        ``record=False``, which leaves every counter and diagnostic alone.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # forward, loss head, training step
    # ------------------------------------------------------------------
    def _forward(self, x: np.ndarray, rng=None, record: bool = True):
        """Sampled forward; returns ``(acts, zs, active_sets, logits)``.

        ``acts[i]`` is layer ``i``'s input, with zeros at inactive nodes;
        ``zs[i]`` holds hidden layer ``i``'s active pre-activations.
        """
        backend = active_backend()
        layers = self.net.layers
        act = self.net.hidden_activation
        acts, zs, active_sets = [x], [], []
        a = x
        for i, layer in enumerate(layers[:-1]):
            cols = self._select_active(i, a, rng=rng, record=record)
            z = backend.matmul_cols(a, layer.W, layer.b, cols)
            a = np.zeros(z.shape[:-1] + (layer.n_out,))
            a[..., cols] = act.forward(z)
            # Batched pre-activations are kept column-major, the layout
            # of the delta gather da[:, cols] they meet in the backward
            # pass; that layout fixes the bias gradient's summation order.
            zs.append(np.asfortranarray(z))
            active_sets.append(cols)
            acts.append(a)
        logits = backend.matmul_add_bias(a, layers[-1].W, layers[-1].b)
        return acts, zs, active_sets, logits

    def _head(self, logits: np.ndarray, y) -> Tuple[float, np.ndarray]:
        """Mean NLL of the log-softmax output and its logit gradient."""
        logp = LogSoftmax().forward(logits)
        rows = np.arange(logp.shape[0])
        loss = float(-logp[rows, y].mean())
        delta = np.exp(logp)
        delta[rows, y] -= 1.0
        delta /= logp.shape[0]
        return loss, delta.reshape(logits.shape)

    def _step(self, x: np.ndarray, y) -> float:
        """One training step on a sample (1-D) or a shared-set batch (2-D)."""
        layers = self.net.layers
        act = self.net.hidden_activation
        out = len(layers) - 1
        batch = 1 if x.ndim == 1 else x.shape[0]
        backend = active_backend()
        with self._time_forward():
            acts, zs, active_sets, logits = self._forward(x)
            loss, delta = self._head(logits, y)

        with self._time_backward():
            # Output layer: dense update.  Every delta is backpropagated
            # through its layer's pre-update weights, as exact training does.
            da = backend.matmul(delta, layers[out].W.T)
            self._update_weights(("W", out), layers[out].W, acts[out], delta)
            self._update(("b", out), layers[out].b, _bias_gradient(delta))
            # Hidden layers: column-sparse updates over the active sets.
            for i in range(out - 1, -1, -1):
                cols = active_sets[i]
                delta = da[..., cols] * act.derivative(zs[i])
                if i > 0:
                    da = backend.backprop_cols(delta, layers[i].W, cols)
                self._update_weights(
                    ("W", i), layers[i].W, acts[i], delta, index=cols
                )
                self._update(("b", i), layers[i].b, _bias_gradient(delta), index=cols)
            self._after_step(active_sets, batch)
        if self.obs.enabled:
            self._record_step_flops(
                batch, [cols.size for cols in active_sets] + [layers[out].n_out]
            )
        return loss

    def _after_step(self, active_sets: List[np.ndarray], batch: int) -> None:
        """Hook run at the end of every step; counts the kept columns."""
        if self.obs.enabled:
            for cols, layer in zip(active_sets, self.net.layers):
                self.obs.add(SAMPLER_COLS_KEPT, int(cols.size))
                self.obs.add(SAMPLER_COLS_POOL, int(layer.n_out))

    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One step per sample, or one step for the batch when it shares
        its active sets (:attr:`shared_active_set`)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y).reshape(-1)
        with self._backend_scope():
            if self.shared_active_set:
                return self._step(x, y)
            total = 0.0
            for xi, yi in zip(x, y):
                total += self._step(xi, int(yi))
        return total / x.shape[0]

    # ------------------------------------------------------------------
    # inference and quality probes
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Sampled inference: each sample selects nodes as in training.

        This is the §10.3 setting: "when predicting the label of an input
        sample, the same set of nodes is activated", which is what
        produces the predicted-label collapse in deep networks.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        with self._backend_scope():
            return np.array(
                [int(np.argmax(self._forward(xi)[-1])) for xi in x], dtype=int
            )

    def predict_exact(self, x: np.ndarray) -> np.ndarray:
        """Exact forward through the trained weights (diagnostic)."""
        with self._backend_scope():
            return self.net.predict(x)

    def probe_approx_forward(self, x, rng):
        """The sampled forward of training, read-only.

        Layout matches :meth:`Trainer.probe_exact_forward`.  Selection
        draws from the probe's ``rng`` and runs with ``record=False``, and
        the products run on the backend :meth:`Trainer.probe_scope`
        activates, so a probe changes no trainer state, RNG stream or
        work counter.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        rows = [x] if self.shared_active_set else list(x)
        passes = [self._forward(r, rng=rng, record=False) for r in rows]
        outs = [acts[1:] + [logits] for acts, _, _, logits in passes]
        return [np.vstack(layer_outs) for layer_outs in zip(*outs)]
