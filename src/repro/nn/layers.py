"""Fully connected layers as explicit parameter containers.

Layers here deliberately stay *thin*: a :class:`DenseLayer` owns its weight
matrix ``W`` (shape ``n_in × n_out`` — column *j* is the fan-in of node *j*,
exactly the orientation used in the paper's Figure 2) and bias ``b``, plus
the exact products of the forward and backward pass.  The logical shape is
fixed but the memory layout is not: a new layer holds ``W`` row-major,
every :class:`~repro.core.base.Trainer` converts it to column-major
(node-major, so a node's fan-in is contiguous) and a
:class:`~repro.serve.ServableModel` freezes it row-major.  Every product
below accepts either layout.

No sampled products live here.  The current-layer samplers (§5) call the
column-subset kernels from one place,
:class:`~repro.core.columns.ColumnSamplingTrainer`.  Standout,
MC-approx (§6) and standard's one-row steps share the full-width loop of
:class:`~repro.core.dense.DenseLoopTrainer`, which takes the exact
products from here; MC-approx swaps in rows sampled with
:mod:`repro.approx.bernoulli`.  The products execute on the active
compute backend (:func:`repro.backend.active_backend`) — the layer stays
the single place that knows *which* product to take, the backend decides
*how*.
"""

from __future__ import annotations

import numpy as np

from ..backend import active_backend

__all__ = ["DenseLayer"]


class DenseLayer:
    """A dense layer ``z = a_prev @ W + b``.

    ``W`` is created row-major; trainers swap in a column-major copy (see
    the module docstring), so hold on to ``layer.W`` itself, not to an
    array fetched before a trainer was built.

    Parameters
    ----------
    n_in, n_out:
        Fan-in and fan-out of the layer.
    rng:
        NumPy random generator that draws ``W`` He-normal, the
        initialisation for the paper's ReLU layers.
    """

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        if n_in <= 0 or n_out <= 0:
            raise ValueError(f"layer dims must be positive, got {n_in}x{n_out}")
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.W = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))
        self.b = np.zeros(n_out)

    # ------------------------------------------------------------------
    # forward products
    # ------------------------------------------------------------------
    def forward(self, a_prev: np.ndarray) -> np.ndarray:
        """Exact pre-activations for a batch: ``a_prev @ W + b``."""
        return active_backend().matmul_add_bias(a_prev, self.W, self.b)

    # ------------------------------------------------------------------
    # backward products
    # ------------------------------------------------------------------
    def weight_gradients(self, a_prev: np.ndarray, delta: np.ndarray):
        """Exact (gW, gb) given dL/dz of this layer."""
        return active_backend().grad_cols(a_prev, delta), delta.sum(axis=0)

    def backprop_delta(self, delta: np.ndarray) -> np.ndarray:
        """Propagate dL/dz back to dL/da of the previous layer."""
        return active_backend().matmul(delta, self.W.T)

    # ------------------------------------------------------------------
    # utilities
    # ------------------------------------------------------------------
    def num_params(self) -> int:
        """Total learnable scalars in the layer."""
        return self.W.size + self.b.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DenseLayer({self.n_in}->{self.n_out})"
