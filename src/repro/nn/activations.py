"""Element-wise activation functions with explicit derivatives.

The training methods in :mod:`repro.core` implement backpropagation by hand
(the paper's algorithms sample *inside* the matrix products, which rules out
an off-the-shelf autograd), so every activation exposes both ``forward`` and
``derivative``.  Activations are stateless; the same instance can be shared
across layers and threads.

The paper's network has ReLU hidden layers under a log-softmax output
(§4.1, §8.4), and :class:`~repro.nn.network.MLP` is that network; sigmoid
is standout's keep probability (adaptive dropout).  Log-softmax is not
element-wise.  It is modelled by :class:`LogSoftmax`, whose backward pass is
only ever needed fused with the negative log-likelihood loss (see
:class:`repro.nn.losses.NLLLoss`), matching how the paper trains.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Activation", "ReLU", "Sigmoid", "LogSoftmax"]


class Activation:
    """Base class for element-wise activations.

    Subclasses implement :meth:`forward` and :meth:`derivative`; both are
    vectorized over arrays of any shape.
    """

    name = "base"

    def forward(self, z: np.ndarray) -> np.ndarray:
        """Apply the activation to pre-activations ``z``."""
        raise NotImplementedError

    def derivative(self, z: np.ndarray) -> np.ndarray:
        """Return f'(z) evaluated element-wise at the pre-activations."""
        raise NotImplementedError

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.forward(z)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ReLU(Activation):
    """Rectified linear unit, the paper's default hidden activation (§8.4)."""

    name = "relu"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(z, 0.0)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        return (z > 0.0).astype(z.dtype)


class Sigmoid(Activation):
    """Logistic sigmoid, numerically stabilised for large ``|z|``."""

    name = "sigmoid"

    def forward(self, z: np.ndarray) -> np.ndarray:
        # e = exp(-|z|) never overflows; 1/(1+e) for z >= 0 and e/(1+e)
        # below are the two stable halves, taken without masked copies.
        # min(z, -z) rather than -abs(z) keeps a NaN's sign bit.
        e = np.exp(np.minimum(z, -z))
        d = 1.0 + e
        return np.where(z >= 0, 1.0 / d, e / d)

    def derivative(self, z: np.ndarray) -> np.ndarray:
        s = self.forward(z)
        return s * (1.0 - s)


class LogSoftmax(Activation):
    """Row-wise log-softmax, the paper's output activation (§8.4).

    ``derivative`` deliberately raises: the Jacobian is not diagonal, and in
    this codebase log-softmax only ever appears fused with the NLL loss,
    where the combined gradient is ``softmax(z) - onehot(y)``.
    """

    name = "log_softmax"

    def forward(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(z)
        m = z.max(axis=1, keepdims=True)
        shifted = z - m
        logsum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return shifted - logsum

    def derivative(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError(
            "LogSoftmax has a non-diagonal Jacobian; use the fused "
            "log-softmax + NLL gradient from repro.nn.losses.NLLLoss"
        )

    @staticmethod
    def softmax(z: np.ndarray) -> np.ndarray:
        """Row-wise softmax, shared by the fused loss gradient."""
        z = np.atleast_2d(z)
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)

