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
from ..backend import active_backend
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
from .dense import DenseLoopTrainer

__all__ = ["MCApproxTrainer"]


class MCApproxTrainer(DenseLoopTrainer):
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
        """Unbiased Bernoulli estimate of ``a @ b`` with ~budget samples."""
        idx, scales = self._sample(a, b, budget)
        if idx.size == 0:
            return np.zeros((a.shape[0], b.shape[1]), order="F")
        return active_backend().sampled_matmul(a, b, idx, scales)

    def _sample(self, a: np.ndarray, b: np.ndarray, budget: int):
        """Kept inner indices of ``a @ b`` and their 1/p scales.

        Always runs the probability machinery (the pass over the operands
        that §9.3 identifies as MC-approx's fixed overhead), even when the
        budget covers the whole inner dimension, and records the
        product's work as if it were taken.
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
        return idx, scales

    def _node_budget(self, inner: int) -> int:
        budget = max(self.min_node_samples, int(round(self.node_frac * inner)))
        return min(inner, budget)

    def _hidden_preactivation(self, layer, a, rng, record):
        """Exact as published (so the forward-error probe reads zero), or
        Bernoulli-sampled under ``approximate_forward``; a probe's sample
        (``record=False``) draws from its ``rng`` and records no counters.
        """
        if not self.approximate_forward:
            return layer.forward(a)
        budget = self._node_budget(layer.n_in)
        if record:
            return self._sampled_matmul(a, layer.W, budget) + layer.b
        return bernoulli_multiply(a, layer.W, budget, rng) + layer.b

    def _weight_gradients(self, layer, a_prev, delta):
        # Weight gradient: inner dimension is the batch (§9.3).
        budget = min(self.k, delta.shape[0])
        if len(a_prev) == 1:
            # One row: k clips to 1, so p = 1 and the draw keeps the row;
            # hand over the kept row scaled by its 1/p.
            _, scales = self._sample(a_prev.T, delta, budget)
            return a_prev * scales, delta.sum(axis=0)
        g_w = self._sampled_matmul(a_prev.T, delta, budget)
        return g_w, delta.sum(axis=0)

    def _backprop_delta(self, layer, delta):
        # Delta propagation: inner dimension is this layer's node
        # count — "sampling from the previous layer".
        return self._sampled_matmul(
            delta, layer.W.T, self._node_budget(layer.n_out)
        )

    def _record_step(self, batch, masks):
        # Sampled products account for themselves inside
        # _sampled_matmul; only the exact forward GEMMs remain
        # (dense == actual — the feedforward pass is never skipped).
        layers = self.net.layers
        for i, layer in enumerate(layers):
            if self.approximate_forward and i < len(layers) - 1:
                continue
            flops = gemm_flops(batch, layer.n_in, layer.n_out)
            self.obs.add(FLOPS_DENSE, flops)
            self.obs.add(FLOPS_ACTUAL, flops)
