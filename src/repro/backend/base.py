"""The compute backend: every kernel the trainers and serving call.

Every hot matrix product of training and serving — the dense and conv
layer products, the scaled sampled-GEMM of the MC trainer, the
column-subset products of the ALSH/top-k/dropout trainers, the SRP
hashers' projections — and the dense loop's activations call one of
the seven kernels in :data:`KERNEL_NAMES`.  :class:`ComputeBackend`,
``reference``, is their one implementation: every method body is the
plain NumPy expression for its product, and the no-op digest tests pin
its float64 results.  A wrapper (tracing, timing, kernel capture) is any
object with the same seven kernels.

Conventions
-----------
* Operands are float64 C- or F-contiguous ndarrays (1-D operands are
  accepted where the historical call sites passed them).
* Returned arrays are always freshly allocated — callers hold on to
  results across batches (activation caches).  A backend holds no
  buffers between calls: the shared ``reference`` instance serves every
  thread at once.
* The weight-gradient products (:meth:`~ComputeBackend.grad_cols`, and
  :meth:`~ComputeBackend.sampled_matmul`, which yields MC's) come back
  column-major, the layout trainers keep ``W`` in, so an optimiser step
  never mixes layouts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["ComputeBackend", "KERNEL_NAMES"]

#: Every kernel a backend implements, in call-frequency order: exactly
#: the kernels the trainers and serving call.  The instrumentation
#: wrapper, perfbench's timing proxy and the kernel-capture tests iterate
#: this list, so a new kernel only needs to be added here once.
KERNEL_NAMES = (
    "matmul",
    "matmul_add_bias",
    "matmul_cols",
    "backprop_cols",
    "grad_cols",
    "sampled_matmul",
    "apply_activation",
)


class ComputeBackend:
    """The ``reference`` backend: the NumPy expression of every kernel."""

    name = "reference"

    # ------------------------------------------------------------------
    # dense GEMM
    # ------------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Plain ``a @ b`` (either operand may be 1-D)."""
        return a @ b

    def matmul_add_bias(
        self, a: np.ndarray, w: np.ndarray, bias: np.ndarray
    ) -> np.ndarray:
        """Dense layer forward: ``a @ w + bias``."""
        return a @ w + bias

    # ------------------------------------------------------------------
    # column-subset products (sampling from the current layer)
    # ------------------------------------------------------------------
    def matmul_cols(
        self,
        a: np.ndarray,
        w: np.ndarray,
        bias: Optional[np.ndarray],
        cols: np.ndarray,
    ) -> np.ndarray:
        """Column-restricted forward: ``a @ w[:, cols] + bias[cols]``."""
        z = a @ w[:, cols]
        if bias is not None:
            z = z + bias[cols]
        return z

    def backprop_cols(
        self, delta: np.ndarray, w: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Delta propagation through the active columns only.

        2-D ``delta``: ``delta @ w[:, cols].T`` (batched); 1-D ``delta``:
        ``w[:, cols] @ delta`` (the per-sample trainers) — both exactly as
        the historical call sites wrote them.
        """
        if delta.ndim == 1:
            return w[:, cols] @ delta
        return delta @ w[:, cols].T

    def grad_cols(self, a_prev: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """Weight-gradient product ``a_prev.T @ delta`` (outer for 1-D).

        Returned column-major, the layout trainers keep ``W`` in, as the
        transpose of the row-major product ``delta.T @ a_prev``.
        """
        if a_prev.ndim == 1:
            return np.multiply.outer(delta, a_prev).T
        return (delta.T @ a_prev).T

    # ------------------------------------------------------------------
    # scaled sampled-GEMM (MC column-row estimator)
    # ------------------------------------------------------------------
    def sampled_matmul(
        self,
        a: np.ndarray,
        b: np.ndarray,
        idx: np.ndarray,
        scales: np.ndarray,
    ) -> np.ndarray:
        """Bernoulli column–row estimate ``(a[:, idx] * scales) @ b[idx, :]``.

        Returned column-major, like :meth:`grad_cols` (MC's weight
        gradients come from here), as the transpose of the row-major
        product of the transposed operands; an empty draw gives zeros.
        """
        return (b[idx, :].T @ (a[:, idx] * scales).T).T

    # ------------------------------------------------------------------
    # elementwise
    # ------------------------------------------------------------------
    def apply_activation(self, activation, z: np.ndarray) -> np.ndarray:
        """Elementwise activation forward (``activation.forward(z)``)."""
        return activation.forward(z)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
