"""The training loss: negative log-likelihood on log-softmax outputs.

The paper trains with that loss (§8.4).  :class:`NLLLoss` gives its value
and the *fused* gradient w.r.t. the pre-softmax logits, which is what the
hand-written backpropagation in :mod:`repro.core` consumes.
"""

from __future__ import annotations

import numpy as np

from .activations import LogSoftmax

__all__ = ["NLLLoss"]


def _as_labels(y: np.ndarray) -> np.ndarray:
    """Normalise integer class labels to a 1-D int array."""
    y = np.asarray(y)
    if y.ndim == 2 and y.shape[1] > 1:  # one-hot
        return y.argmax(axis=1)
    return y.reshape(-1).astype(int)


class NLLLoss:
    """Negative log-likelihood over log-probabilities (paper default).

    ``output`` is expected to already be log-probabilities (the result of a
    log-softmax layer).  :meth:`fused_logit_gradient` gives the gradient
    w.r.t. the *logits* that produced them, i.e. ``softmax(z) - onehot(y)``,
    averaged over the batch.
    """

    def value(self, output: np.ndarray, target: np.ndarray) -> float:
        """Mean loss over the batch."""
        output = np.atleast_2d(output)
        labels = _as_labels(target)
        if output.shape[0] == 0:
            raise ValueError("empty batch")
        if labels.shape[0] != output.shape[0]:
            raise ValueError(
                f"batch mismatch: {output.shape[0]} outputs, "
                f"{labels.shape[0]} targets"
            )
        picked = output[np.arange(output.shape[0]), labels]
        return float(-picked.mean())

    @staticmethod
    def fused_logit_gradient(logits: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Gradient of mean NLL(log_softmax(logits), y) w.r.t. ``logits``."""
        logits = np.atleast_2d(logits)
        labels = _as_labels(target)
        probs = LogSoftmax.softmax(logits)
        grad = probs.copy()
        grad[np.arange(logits.shape[0]), labels] -= 1.0
        return grad / logits.shape[0]

