"""TOPK-APPROX — ALSH-approx with an exact-MIPS oracle selector.

The paper's Theorem 7.2 assumes "the active nodes are detected exactly"
and *still* proves exponential error growth: the collapse is inherent to
sampling-from-the-current-layer, not an artefact of LSH recall.  This
trainer makes that argument executable: it is ALSH-approx with the hash
tables replaced by a brute-force maximum-inner-product search, i.e. the
best possible active-set selector at a given budget.  If TOPK-APPROX also
collapses with depth (it does — see the depth ablation bench), the LSH
machinery is exonerated and the blame lands on feedforward approximation
itself, exactly as §7 claims.

It is deliberately *not* a practical method: exact MIPS costs the full
product it is supposed to avoid.  It exists as scientific apparatus.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..nn.activations import LogSoftmax
from ..nn.network import MLP
from ..obs import Recorder
from ..obs.counters import SAMPLER_COLS_KEPT, SAMPLER_COLS_POOL
from .base import Trainer

__all__ = ["TopKApproxTrainer"]


class TopKApproxTrainer(Trainer):
    """Current-layer sampling with oracle (exact top-k) node selection.

    Parameters
    ----------
    active_frac:
        Fraction of each hidden layer kept active per sample — matched to
        ALSH-approx's active-set size for apples-to-apples comparisons.
    """

    name = "topk"

    def __init__(
        self,
        network: MLP,
        lr: float = 1e-3,
        optimizer="adam",
        active_frac: float = 0.25,
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
        if not 0.0 < active_frac <= 1.0:
            raise ValueError(f"active_frac must be in (0, 1], got {active_frac}")
        self.active_frac = float(active_frac)
        self.n_hidden = len(network.layers) - 1

    def _select_active(self, layer_idx: int, a_prev: np.ndarray) -> np.ndarray:
        """Exact top-k columns by |⟨a_prev, W·j⟩| — the MIPS oracle."""
        layer = self.net.layers[layer_idx]
        keep = max(1, int(round(self.active_frac * layer.n_out)))
        scores = np.abs(self._backend().matmul(a_prev, layer.W))
        top = np.argpartition(-scores, keep - 1)[:keep]
        top.sort()
        return top

    # ------------------------------------------------------------------
    # training — identical structure to ALSH-approx, oracle selection
    # ------------------------------------------------------------------
    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y).reshape(-1)
        total = 0.0
        for xi, yi in zip(x, y):
            total += self._train_one(xi, int(yi))
        return total / x.shape[0]

    def _train_one(self, x: np.ndarray, y: int) -> float:
        layers = self.net.layers
        act = self.net.hidden_activation
        backend = self._backend()

        with self._time_forward():
            active_sets: List[np.ndarray] = []
            z_actives: List[np.ndarray] = []
            acts: List[np.ndarray] = [x]
            a_prev = x
            for i in range(self.n_hidden):
                cand = self._select_active(i, a_prev)
                active_sets.append(cand)
                z_c = backend.matmul_cols(a_prev, layers[i].W, layers[i].b, cand)
                z_actives.append(z_c)
                a_full = np.zeros(layers[i].n_out)
                a_full[cand] = act.forward(z_c)
                acts.append(a_full)
                a_prev = a_full
            logits = backend.matmul_add_bias(a_prev, layers[-1].W, layers[-1].b)
            logp = LogSoftmax().forward(logits.reshape(1, -1))[0]
            loss = float(-logp[y])

        with self._time_backward():
            delta = np.exp(logp)
            delta[y] -= 1.0
            da = backend.matmul(layers[-1].W, delta)
            g_w = backend.grad_cols(acts[-1], delta)
            self._update(("W", self.n_hidden), layers[-1].W, g_w)
            self._update(("b", self.n_hidden), layers[-1].b, delta)
            for i in range(self.n_hidden - 1, -1, -1):
                cand = active_sets[i]
                delta_c = da[cand] * act.derivative(z_actives[i])
                g_w_cols = backend.grad_cols(acts[i], delta_c)
                if i > 0:
                    da = backend.backprop_cols(delta_c, layers[i].W, cand)
                self._update(("W", i), layers[i].W, g_w_cols, index=cand)
                self._update(("b", i), layers[i].b, delta_c, index=cand)
        if self.obs.enabled:
            # The selector itself is exact MIPS (a full product), so
            # flops.actual understates the oracle's true cost — that is the
            # point: it measures what a *perfect* selector would save.
            self._record_step_flops(
                1, [cand.size for cand in active_sets] + [layers[-1].n_out]
            )
            for i in range(self.n_hidden):
                self.obs.add(SAMPLER_COLS_KEPT, int(active_sets[i].size))
                self.obs.add(SAMPLER_COLS_POOL, int(layers[i].n_out))
        return loss

    # ------------------------------------------------------------------
    # quality probes
    # ------------------------------------------------------------------
    def probe_approx_forward(self, x, rng):
        """Oracle-sampled forward; deterministic, so ``rng`` is unused.

        The exact-MIPS selector has no randomness — the forward-error
        probe on TOPK measures the pure sampling-from-the-current-layer
        drift Theorem 7.2 bounds, with selector noise excluded.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        layers = self.net.layers
        act = self.net.hidden_activation
        hidden = [
            np.zeros((x.shape[0], layers[i].n_out))
            for i in range(self.n_hidden)
        ]
        logits = np.zeros((x.shape[0], layers[-1].n_out))
        for s in range(x.shape[0]):
            a_prev = x[s]
            for i in range(self.n_hidden):
                cand = self._select_active(i, a_prev)
                z_c = a_prev @ layers[i].W[:, cand] + layers[i].b[cand]
                a_full = np.zeros(layers[i].n_out)
                a_full[cand] = act.forward(z_c)
                hidden[i][s] = a_full
                a_prev = a_full
            logits[s] = a_prev @ layers[-1].W + layers[-1].b
        return hidden + [logits]

    # ------------------------------------------------------------------
    # inference — sampled, like training (matching ALSH semantics)
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Oracle-sampled inference (same selection rule as training)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        layers = self.net.layers
        act = self.net.hidden_activation
        backend = self._backend()
        out = np.empty(x.shape[0], dtype=int)
        for s in range(x.shape[0]):
            a_prev = x[s]
            for i in range(self.n_hidden):
                cand = self._select_active(i, a_prev)
                z_c = backend.matmul_cols(a_prev, layers[i].W, layers[i].b, cand)
                a_full = np.zeros(layers[i].n_out)
                a_full[cand] = act.forward(z_c)
                a_prev = a_full
            logits = backend.matmul_add_bias(a_prev, layers[-1].W, layers[-1].b)
            out[s] = int(np.argmax(logits))
        return out

    def predict_exact(self, x: np.ndarray) -> np.ndarray:
        """Exact forward through the trained weights (diagnostic)."""
        return self.net.predict(x)
