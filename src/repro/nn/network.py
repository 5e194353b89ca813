"""The multilayer perceptron container used by every training method.

Mirrors the paper's model (§4.1): ``m_i`` inputs, ``k`` hidden layers of
``n`` nodes each (widths may differ), ``m_o`` outputs, ReLU hidden
activations and a log-softmax output trained with negative log-likelihood.

The class provides the *exact* forward and backward passes (the STANDARD
method of §8.3 and the baseline every approximation is compared against);
the sampling-based trainers in :mod:`repro.core` reuse its layers but run
their own passes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..backend import active_backend
from .activations import Activation, LogSoftmax, ReLU
from .layers import DenseLayer
from .losses import NLLLoss

__all__ = ["MLP", "ForwardCache"]


class ForwardCache:
    """Intermediate state of one forward pass.

    Attributes
    ----------
    activations:
        ``[a^0 = x, a^1, ..., a^{l-1}]`` — inputs to each layer.
    zs:
        ``[z^1, ..., z^l]`` — pre-activations of each layer.
    output:
        Network output (log-probabilities).
    """

    __slots__ = ("activations", "zs", "output")

    def __init__(
        self,
        activations: List[np.ndarray],
        zs: List[np.ndarray],
        output: np.ndarray,
    ):
        self.activations = activations
        self.zs = zs
        self.output = output


class MLP:
    """The paper's fully connected network: ReLU hidden layers under a
    log-softmax output (§4.1, §8.4).

    ``hidden_activation`` and ``output_activation`` are those two,
    always; trainers read them from here.

    Parameters
    ----------
    layer_sizes:
        ``[m_i, n_1, ..., n_k, m_o]`` — at least input and output.
    seed / rng:
        Reproducibility controls; ``rng`` wins when both are given.

    Examples
    --------
    >>> net = MLP([784, 100, 100, 10], seed=0)
    >>> net.depth
    2
    """

    hidden_activation: Activation = ReLU()
    output_activation: Activation = LogSoftmax()

    def __init__(
        self,
        layer_sizes: Sequence[int],
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.layer_sizes = layer_sizes = self.check_sizes(layer_sizes)
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.layers: List[DenseLayer] = [
            DenseLayer(n_in, n_out, self.rng)
            for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:])
        ]

    @staticmethod
    def check_sizes(layer_sizes: Sequence[int]) -> List[int]:
        """``layer_sizes`` as a list of plain ints, refused unless it names
        at least an input and an output size and every size is a positive
        Python or NumPy integer (a bool, float or string is refused)."""
        layer_sizes = list(layer_sizes)
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if not all(
            isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s > 0
            for s in layer_sizes
        ):
            raise ValueError(
                f"all layer sizes must be positive integers: {layer_sizes}"
            )
        return [int(s) for s in layer_sizes]

    @classmethod
    def from_arrays(cls, params: Sequence[Tuple[np.ndarray, np.ndarray]]) -> "MLP":
        """The network whose layers hold ``params``' ``(W, b)`` pairs as
        given, in order.  Nothing is drawn, so ``rng`` is None; the
        caller checks that consecutive shapes chain."""
        net = cls.__new__(cls)
        net.layers = [DenseLayer.from_arrays(W, b) for W, b in params]
        net.layer_sizes = [net.layers[0].n_in] + [ly.n_out for ly in net.layers]
        net.rng = None
        return net

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of *hidden* layers (the paper's ``k``)."""
        return len(self.layers) - 1

    @property
    def n_outputs(self) -> int:
        """Width of the output layer."""
        return self.layer_sizes[-1]

    def num_params(self) -> int:
        """Total learnable scalars across all layers."""
        return sum(layer.num_params() for layer in self.layers)

    # ------------------------------------------------------------------
    # exact passes
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> ForwardCache:
        """Exact forward pass; returns all intermediates for backprop."""
        a = np.atleast_2d(np.asarray(x, dtype=float))
        activations = [a]
        zs: List[np.ndarray] = []
        backend = active_backend()
        for layer in self.layers[:-1]:
            zs.append(layer.forward(a))
            a = backend.apply_activation(self.hidden_activation, zs[-1])
            activations.append(a)
        zs.append(self.layers[-1].forward(a))
        output = backend.apply_activation(self.output_activation, zs[-1])
        return ForwardCache(activations, zs, output)

    def backward(
        self, cache: ForwardCache, y: np.ndarray
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Exact gradients ``[(gW^1, gb^1), ...]`` for mean NLL loss.

        The fused gradient at the output logits of the log-softmax + NLL
        head is ``softmax(z^l) - onehot(y)``.
        """
        grads: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(self.layers)
        delta = NLLLoss.fused_logit_gradient(cache.zs[-1], y)
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            grads[i] = layer.weight_gradients(cache.activations[i], delta)
            if i > 0:
                da = layer.backprop_delta(delta)
                delta = da * self.hidden_activation.derivative(cache.zs[i - 1])
        return grads

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict_logproba(self, x: np.ndarray) -> np.ndarray:
        """Log class probabilities for a batch."""
        return self.forward(x).output

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions for a batch."""
        return self.predict_logproba(x).argmax(axis=1)

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean NLL of the batch under the current parameters."""
        return NLLLoss().value(self.predict_logproba(x), y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MLP({'-'.join(str(s) for s in self.layer_sizes)})"
