"""MC-APPROX — Monte-Carlo approximation of backprop products (§6.2,
Adelman et al. [1]).

The feedforward pass stays exact (the paper's §10.1: feed-forward
approximation failed in the original authors' experiments, so MC-approx
"only adds approximation during backpropagation").  During backpropagation
two families of products are estimated with the unbiased Bernoulli
column–row sampler of :mod:`repro.approx.bernoulli` (Eq. 7 probabilities):

* **delta propagation** ``da^{k-1} = δ^k (W^k)^T`` — the inner dimension is
  the current layer's node count; sampling it is "sampling from the
  previous layer" in the paper's taxonomy.  Importance scores combine the
  per-node gradient magnitude over the batch, ‖δ·i‖, with the node's weight
  column norm ‖W·i‖.
* **weight gradients** ``∇W^k = (a^{k-1})^T δ^k`` — the inner dimension is
  the *batch*.  This is why the method lives and dies by batch size
  (§9.3): with batch size 1 the "distribution" is a single point, the
  probability machinery is pure overhead, and MC-approxS ends up slower
  than STANDARD (Table 3).

``approximate_forward=True`` additionally estimates the feedforward
products — the §10.1 ablation that demonstrates why nobody ships that
variant.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..approx.bernoulli import (
    bernoulli_multiply,
    bernoulli_probabilities,
    bernoulli_sample,
)
from ..nn.losses import NLLLoss
from ..nn.network import MLP
from ..obs import Recorder
from ..obs.counters import (
    FLOPS_ACTUAL,
    FLOPS_DENSE,
    MEM_GATHER_BYTES,
    SAMPLER_ROWS_KEPT,
    SAMPLER_ROWS_POOL,
    gemm_flops,
)
from .base import Trainer

__all__ = ["MCApproxTrainer"]


class MCApproxTrainer(Trainer):
    """MC-approx training with Bernoulli-sampled backprop products.

    Parameters
    ----------
    k:
        Sample budget for the batch-dimension products (paper: k = 10 with
        batch size 20); clipped to the actual batch size.
    node_frac:
        Fraction of the inner node dimension kept when estimating delta
        propagation (paper reports a sampling ratio around 0.1).
    min_node_samples:
        Floor on the kept-node count.  The paper's setting keeps
        0.1 × 1000 = 100 nodes per layer; on narrower networks a bare
        fraction would keep so few nodes that the 1/p-scaled estimates
        destabilise SGD.  The floor preserves the paper's *absolute*
        sample count regime (it is inactive at paper widths).
    approximate_forward:
        Also approximate the feedforward products — the negative-result
        ablation of §10.1.  Off by default, like the published method.
    """

    name = "mc"

    def __init__(
        self,
        network: MLP,
        lr: float = 1e-3,
        optimizer="sgd",
        k: int = 10,
        node_frac: float = 0.1,
        min_node_samples: int = 32,
        approximate_forward: bool = False,
        seed: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        compute_backend=None,
    ):
        super().__init__(
            network,
            lr=lr,
            optimizer=optimizer,
            seed=seed,
            recorder=recorder,
            compute_backend=compute_backend,
        )
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if not 0.0 < node_frac <= 1.0:
            raise ValueError(f"node_frac must be in (0, 1], got {node_frac}")
        if min_node_samples < 1:
            raise ValueError(
                f"min_node_samples must be at least 1, got {min_node_samples}"
            )
        self.k = int(k)
        self.node_frac = float(node_frac)
        self.min_node_samples = int(min_node_samples)
        self.approximate_forward = bool(approximate_forward)

    # ------------------------------------------------------------------
    # sampled products
    # ------------------------------------------------------------------
    def _sampled_matmul(self, a: np.ndarray, b: np.ndarray, budget: int) -> np.ndarray:
        """Unbiased Bernoulli estimate of ``a @ b`` with ~budget samples.

        Always runs the probability machinery (the pass over the operands
        that §9.3 identifies as MC-approx's fixed overhead), even when the
        budget covers the whole inner dimension.
        """
        inner = a.shape[1]
        budget = min(max(budget, 1), inner)
        probs = bernoulli_probabilities(a, b, budget)
        idx, scales = bernoulli_sample(probs, self.rng)
        if self.obs.enabled:
            self.obs.add(SAMPLER_ROWS_KEPT, int(idx.size))
            self.obs.add(SAMPLER_ROWS_POOL, int(inner))
            self.obs.add(FLOPS_DENSE, gemm_flops(a.shape[0], inner, b.shape[1]))
            self.obs.add(FLOPS_ACTUAL, gemm_flops(a.shape[0], idx.size, b.shape[1]))
            # The estimator gathers a (m, keep) slice of ``a`` and a
            # (keep, n) row block of ``b`` — byte traffic flops.actual
            # cannot see (8-byte elements).
            self.obs.add(
                MEM_GATHER_BYTES,
                8 * int(idx.size) * (int(a.shape[0]) + int(b.shape[1])),
            )
        if idx.size == 0:
            return np.zeros((a.shape[0], b.shape[1]), order="F")
        return self._backend().sampled_matmul(a, b, idx, scales)

    def _node_budget(self, inner: int) -> int:
        budget = max(self.min_node_samples, int(round(self.node_frac * inner)))
        return min(inner, budget)

    def probe_approx_forward(self, x, rng):
        """Forward under this configuration's approximation, read-only.

        The published method keeps the feedforward pass exact (§10.1),
        so by default this equals the exact forward and the probe
        measures zero drift — the MC estimator probe covers the
        backward-product quality instead.  With
        ``approximate_forward=True`` the hidden products are
        Bernoulli-sampled from the caller's ``rng`` (never
        ``self.rng``), with no counters recorded.
        """
        if not self.approximate_forward:
            return self.probe_exact_forward(x)
        a = np.atleast_2d(np.asarray(x, dtype=float))
        layers = self.net.layers
        act = self.net.hidden_activation
        outs = []
        for i, layer in enumerate(layers):
            if i < len(layers) - 1:
                z = bernoulli_multiply(
                    a, layer.W, self._node_budget(layer.n_in), rng
                ) + layer.b
                a = act.forward(z)
                outs.append(a)
            else:
                outs.append(layer.forward(a))
        return outs

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        layers = self.net.layers
        n_layers = len(layers)
        act = self.net.hidden_activation

        with self._time_forward():
            activations = [x]
            zs = []
            a = x
            for i in range(n_layers):
                layer = layers[i]
                if self.approximate_forward and i < n_layers - 1:
                    z = self._sampled_matmul(
                        a, layer.W, self._node_budget(layer.n_in)
                    ) + layer.b
                else:
                    z = layer.forward(a)
                zs.append(z)
                if i < n_layers - 1:
                    a = act.forward(z)
                    activations.append(a)
            logits = zs[-1]
            loss = self.loss_fn.value(
                self.net.output_activation.forward(logits), y
            )

        batch = x.shape[0]
        with self._time_backward():
            delta = NLLLoss.fused_logit_gradient(logits, y)
            for i in range(n_layers - 1, -1, -1):
                layer = layers[i]
                a_prev = activations[i]
                # Weight gradient: inner dimension is the batch (§9.3).
                g_w = self._sampled_matmul(a_prev.T, delta, min(self.k, batch))
                g_b = delta.sum(axis=0)
                if i > 0:
                    # Delta propagation: inner dimension is this layer's
                    # node count — "sampling from the previous layer".
                    da = self._sampled_matmul(
                        delta, layer.W.T, self._node_budget(layer.n_out)
                    )
                    delta = da * act.derivative(zs[i - 1])
                self._update(("W", i), layer.W, g_w)
                self._update(("b", i), layer.b, g_b)
        if self.obs.enabled:
            # Sampled products account for themselves inside
            # _sampled_matmul; only the exact forward GEMMs remain
            # (dense == actual — the feedforward pass is never skipped).
            for i, layer in enumerate(layers):
                if self.approximate_forward and i < n_layers - 1:
                    continue
                flops = gemm_flops(batch, layer.n_in, layer.n_out)
                self.obs.add(FLOPS_DENSE, flops)
                self.obs.add(FLOPS_ACTUAL, flops)
        return loss
