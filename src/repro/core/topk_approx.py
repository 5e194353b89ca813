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

from typing import Optional

import numpy as np

from ..backend import active_backend
from ..nn.network import MLP
from ..obs import Recorder
from .columns import ColumnSamplingTrainer

__all__ = ["TopKApproxTrainer"]


class TopKApproxTrainer(ColumnSamplingTrainer):
    """Current-layer sampling with oracle (exact top-k) node selection.

    Training, sampled inference and the forward-error probe are
    ALSH-approx's per-sample ones, with selection by exact MIPS.

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

    def _select_active(self, layer_idx, a_prev, rng=None, record=True):
        """Exact top-k columns by |⟨a_prev, W·j⟩| — the MIPS oracle.

        The selector has no randomness, so ``rng`` goes unused, and the
        forward-error probe measures the pure sampling-from-the-current-
        layer drift Theorem 7.2 bounds.  Its full product is the cost a
        *perfect* selector would pay; flops.actual leaves it out.
        """
        layer = self.net.layers[layer_idx]
        keep = max(1, int(round(self.active_frac * layer.n_out)))
        scores = np.abs(active_backend().matmul(a_prev, layer.W))
        top = np.argpartition(-scores, keep - 1)[:keep]
        top.sort()
        return top
