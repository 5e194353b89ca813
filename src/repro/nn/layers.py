"""Fully connected layers as explicit parameter containers.

Layers here deliberately stay *thin*: a :class:`DenseLayer` owns its weight
matrix ``W`` (shape ``n_in × n_out`` — column *j* is the fan-in of node *j*,
exactly the orientation used in the paper's Figure 2) and bias ``b``, plus
the handful of primitive products the sampling-based trainers need.  The
logical shape is fixed but the memory layout is not: a new layer holds
``W`` row-major, every :class:`~repro.core.base.Trainer` converts it to
column-major (node-major, so a node's fan-in is contiguous) and a
:class:`~repro.serve.ServableModel` freezes it row-major.  Every product
below accepts either layout.  The products are:

* exact forward (``a_prev @ W + b``),
* column-restricted forward — "sampling from the current layer" (§5),
* row-restricted forward — "sampling from the previous layer" (§6),
* exact gradient products for backpropagation.

All sampling *policy* (which columns/rows, with what probability, how the
result is scaled) lives in :mod:`repro.core`; keeping the mechanics here lets
every method share one well-tested implementation.  The products
themselves execute on the active compute backend
(:func:`repro.backend.active_backend`) — the layer stays the single
place that knows *which* product to take, the backend decides *how*.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend import active_backend
from .init import get_initializer

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
        NumPy random generator used for initialisation.
    initializer:
        Name from :mod:`repro.nn.init` or a callable
        ``(n_in, n_out, rng) -> ndarray``.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        rng: np.random.Generator,
        initializer="he_normal",
    ):
        if n_in <= 0 or n_out <= 0:
            raise ValueError(f"layer dims must be positive, got {n_in}x{n_out}")
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.W = np.ascontiguousarray(get_initializer(initializer)(n_in, n_out, rng))
        self.b = np.zeros(n_out)

    # ------------------------------------------------------------------
    # forward products
    # ------------------------------------------------------------------
    def forward(self, a_prev: np.ndarray) -> np.ndarray:
        """Exact pre-activations for a batch: ``a_prev @ W + b``."""
        return active_backend().matmul_add_bias(a_prev, self.W, self.b)

    def forward_columns(self, a_prev: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Exact pre-activations for the selected output nodes only.

        Implements "sampling from the current layer" (§5 / Figure 2): only
        the columns of ``W`` for the active nodes are touched, so the work
        is ``O(batch · n_in · |cols|)`` instead of ``O(batch · n_in · n_out)``.
        """
        cols = np.asarray(cols)
        return active_backend().matmul_cols(a_prev, self.W, self.b, cols)

    def forward_rows(
        self,
        a_prev: np.ndarray,
        rows: np.ndarray,
        scale: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Approximate pre-activations using a subset of input nodes.

        Implements "sampling from the previous layer" (§6): every inner
        product is estimated from the selected ``rows`` of ``W`` (and the
        matching entries of ``a_prev``), optionally rescaled per-row by
        ``scale`` (``1/p_i`` for the Monte-Carlo estimators).
        """
        rows = np.asarray(rows)
        return active_backend().matmul_rows(a_prev, self.W, self.b, rows, scale)

    # ------------------------------------------------------------------
    # backward products
    # ------------------------------------------------------------------
    def weight_gradients(self, a_prev: np.ndarray, delta: np.ndarray):
        """Exact (gW, gb) given dL/dz of this layer."""
        return active_backend().grad_cols(a_prev, delta), delta.sum(axis=0)

    def backprop_delta(self, delta: np.ndarray) -> np.ndarray:
        """Propagate dL/dz back to dL/da of the previous layer."""
        return active_backend().matmul(delta, self.W.T)

    def backprop_delta_columns(
        self, delta_cols: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Back-propagate through the active columns only."""
        cols = np.asarray(cols)
        return active_backend().backprop_cols(delta_cols, self.W, cols)

    def weight_gradients_columns(
        self, a_prev: np.ndarray, delta_cols: np.ndarray, cols: np.ndarray
    ):
        """Sparse (gW_cols, gb_cols) for the active columns only."""
        return (
            active_backend().grad_cols(a_prev, delta_cols),
            delta_cols.sum(axis=0),
        )

    # ------------------------------------------------------------------
    # utilities
    # ------------------------------------------------------------------
    def column_norms(self) -> np.ndarray:
        """l2 norm of every column of ``W`` (ALSH preprocessing input)."""
        return np.linalg.norm(self.W, axis=0)

    def num_params(self) -> int:
        """Total learnable scalars in the layer."""
        return self.W.size + self.b.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DenseLayer({self.n_in}->{self.n_out})"
