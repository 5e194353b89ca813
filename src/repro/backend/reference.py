"""The ``reference`` backend — today's NumPy code, bitwise-preserving.

Every kernel inherits the canonical expression from
:class:`~repro.backend.base.ComputeBackend` except the MC trainer's
scaled sampled-GEMM, which historically materialised two fresh
``(m, keep)`` arrays per call (``a[:, idx]`` and its product with the
scale row).  Here the gather lands in a pooled scratch buffer via
``np.take(..., out=...)`` and the scaling is an in-place ufunc — the
same floating-point operations in the same order, so the result is
bitwise identical (pinned by ``tests/backend/test_kernels.py`` and the
no-op digest tests), but the only allocation left is the GEMM output.

The B-side row gather stays plain fancy indexing: on this BLAS/NumPy
pairing ``b[idx, :]`` is measurably faster than ``np.take`` into a
preallocated buffer for row gathers (the copy is contiguous either
way), and the fresh array is unavoidable since the GEMM needs a
C-contiguous operand.
"""

from __future__ import annotations

import numpy as np

from .base import ComputeBackend

__all__ = ["ReferenceBackend"]


class ReferenceBackend(ComputeBackend):
    """Bitwise-faithful kernels with scratch-pooled sampled gathers."""

    name = "reference"

    def sampled_matmul(self, a, b, idx, scales):
        if idx.size == 0 or a.dtype != np.float64 or scales.dtype != np.float64:
            return super().sampled_matmul(a, b, idx, scales)
        ga = self.scratch.get("sampled.a", (a.shape[0], idx.size))
        np.take(a, idx, axis=1, out=ga)
        np.multiply(ga, scales, out=ga)
        return (b[idx, :].T @ ga.T).T
