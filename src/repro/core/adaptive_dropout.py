"""ADAPTIVE-DROPOUT (standout) — data-dependent node sampling (§5.1).

Ba & Frey's standout replaces dropout's fixed keep probability with a
per-node, per-input probability computed from the node's own pre-activation:

    π_j = sigmoid(α · z_j + β),

an approximation of the Bayesian posterior over sub-architectures.  Nodes
that matter for the current input are kept with high probability, which is
why it avoids dropout's catastrophic behaviour at small keep rates
(Table 2: 98.06 vs 90.21 on MNIST).

The cost is that π requires the *full* pre-activation vector, so the full
matrix product is computed before masking — the paper calls this out as
"the additional computational overhead of the construction of dropout
masks" (§9.2) and Table 4 shows Adaptive-DropoutS slower than StandardS.
Our implementation is faithful to that: no products are skipped.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.activations import Sigmoid
from ..nn.network import MLP
from ..obs import Recorder
from ..obs.counters import SAMPLER_MASK_KEPT, SAMPLER_MASK_POOL
from .dense import DenseLoopTrainer

__all__ = ["AdaptiveDropoutTrainer"]


def _logit(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


class AdaptiveDropoutTrainer(DenseLoopTrainer):
    """Standout training with sigmoid(α·z + β) keep probabilities.

    Parameters
    ----------
    alpha, beta:
        Standout parameters.  ``beta`` defaults to logit(target_keep) so
    the *baseline* keep rate matches the paper's p = 0.05 fair-comparison
    setting; data-dependence then raises π for strongly activated nodes.
    target_keep:
        Baseline keep probability used to derive ``beta`` when ``beta`` is
        not given explicitly.
    """

    name = "adaptive_dropout"

    def __init__(
        self,
        network: MLP,
        lr: float = 1e-3,
        optimizer="sgd",
        alpha: float = 1.0,
        beta: Optional[float] = None,
        target_keep: float = 0.05,
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
        if not 0.0 < target_keep < 1.0:
            raise ValueError(f"target_keep must be in (0, 1), got {target_keep}")
        self.alpha = float(alpha)
        self.beta = _logit(target_keep) if beta is None else float(beta)
        self.target_keep = float(target_keep)
        self._sigmoid = Sigmoid()

    def keep_probabilities(self, z: np.ndarray) -> np.ndarray:
        """π = sigmoid(α·z + β) element-wise over pre-activations."""
        return self._sigmoid.forward(self.alpha * z + self.beta)

    def checkpoint_state(self):
        """Standout parameters — recorded so resume can verify config.

        α and β never change during training, but resuming with different
        values would silently change every mask; the restore hook rejects
        that instead.
        """
        return {"alpha": self.alpha, "beta": self.beta}, {}

    def restore_checkpoint_state(self, meta, arrays) -> None:
        if meta.get("alpha") != self.alpha or meta.get("beta") != self.beta:
            raise ValueError(
                f"checkpoint was written with standout parameters "
                f"alpha={meta.get('alpha')}, beta={meta.get('beta')}; "
                f"this trainer has alpha={self.alpha}, beta={self.beta}"
            )

    def _mask(self, z, rng):
        """Keep node j with probability π_j, drawn right after ``z``."""
        return (rng.random(z.shape) < self.keep_probabilities(z)).astype(float)

    def _record_step(self, batch, masks):
        # Standout's defining cost: every product is computed densely
        # (the mask needs the full pre-activation), so nothing is
        # skipped — the mask statistics are the interesting signal.
        super()._record_step(batch, masks)
        for mask in masks:
            self.obs.add(SAMPLER_MASK_KEPT, int(mask.sum()))
            self.obs.add(SAMPLER_MASK_POOL, int(mask.size))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Deterministic forward using expected masks π instead of samples."""
        a = np.atleast_2d(np.asarray(x, dtype=float))
        layers = self.net.layers
        with self._backend_scope():
            for i in range(len(layers) - 1):
                z = layers[i].forward(a)
                a = self.net.hidden_activation.forward(z) * self.keep_probabilities(z)
            return layers[-1].forward(a).argmax(axis=1)
