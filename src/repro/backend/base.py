"""The compute-backend kernel interface.

Every hot matrix product in the repository — the dense layer products in
:mod:`repro.nn.layers`, the im2col convolution in :mod:`repro.nn.conv`,
the scaled sampled-GEMM of the MC trainer, the column-subset products of
the ALSH/top-k/dropout trainers and the fused LSH hashers — routes
through one of the kernels declared here.  A backend is an object with
these methods; :mod:`repro.backend` dispatches to the active one
(``reference`` unless a wrapper is in scope).

:class:`ComputeBackend` is both the interface and the canonical
implementation: every method body below is the plain NumPy expression
for its product, and the no-op digest tests pin its float64 results.
Subclasses override individual kernels and must preserve bitwise
equality, as the ``reference`` backend does.

Conventions
-----------
* Operands are float64 C- or F-contiguous ndarrays (1-D operands are
  accepted where the historical call sites passed them).
* Returned arrays are always freshly allocated — callers hold on to
  results across batches (activation caches), so kernels must never
  return their scratch buffers.
* The weight-gradient products (:meth:`~ComputeBackend.grad_cols`, and
  :meth:`~ComputeBackend.sampled_matmul`, which yields MC's) come back
  column-major, the layout trainers keep ``W`` in, so an optimiser step
  never mixes layouts.
* Scratch buffers (:class:`ScratchPool`) are only used for operand
  staging and are keyed by a call-site slot name so two buffers of the
  same shape never alias within one kernel invocation.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["ComputeBackend", "ScratchPool", "KERNEL_NAMES"]

#: Every kernel a backend implements, in call-frequency order.  The
#: instrumentation wrapper and the property tests iterate this list so a
#: new kernel only needs to be added here once.
KERNEL_NAMES = (
    "matmul",
    "matmul_add_bias",
    "matmul_cols",
    "backprop_cols",
    "grad_cols",
    "sampled_matmul",
    "gather_cols",
    "apply_activation",
    "im2col",
    "col2im",
)


class ScratchPool:
    """Reusable staging buffers keyed by ``(slot, shape, dtype)``.

    The pool exists to kill the per-step slice allocations the sampled
    trainers otherwise pay (ISSUE 7 satellite): a gather like
    ``a[:, idx] * scales`` allocates two fresh ``(m, keep)`` arrays per
    call, while ``np.take(..., out=pool.get(...))`` reuses one buffer for
    the whole run.  ``hits``/``misses`` are exposed so the allocation
    regression test can assert steady-state reuse.
    """

    def __init__(self):
        self._buffers: Dict[Tuple[str, Tuple[int, ...], str], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def get(self, slot: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialised buffer of the requested shape and dtype."""
        key = (slot, tuple(int(s) for s in shape), np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(key[1], dtype=np.dtype(dtype))
            self._buffers[key] = buf
            self.misses += 1
        else:
            self.hits += 1
        return buf

    def clear(self) -> None:
        """Drop all buffers (and reset the hit/miss statistics)."""
        self._buffers.clear()
        self.hits = 0
        self.misses = 0

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(buf.nbytes for buf in self._buffers.values())


class ComputeBackend:
    """Interface + canonical NumPy implementation of every kernel."""

    name = "base"

    def __init__(self):
        self.scratch = ScratchPool()

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
        product of the transposed operands.
        """
        if idx.size == 0:
            return np.zeros((a.shape[0], b.shape[1]), order="F")
        return (b[idx, :].T @ (a[:, idx] * scales).T).T

    # ------------------------------------------------------------------
    # gathers and elementwise
    # ------------------------------------------------------------------
    def gather_cols(self, a: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Column gather ``a[:, idx]`` (``idx`` may be multi-dimensional).

        Used by the gather-based fused hashers (DWTA); index arrays of
        shape ``(..., bins)`` produce ``(n, ..., bins)`` outputs exactly
        like fancy indexing.
        """
        return a[:, idx]

    def apply_activation(self, activation, z: np.ndarray) -> np.ndarray:
        """Elementwise activation forward (``activation.forward(z)``)."""
        return activation.forward(z)

    # ------------------------------------------------------------------
    # im2col convolution support
    # ------------------------------------------------------------------
    @staticmethod
    def _window_offsets(field, stride, out_h, out_w):
        i0 = np.repeat(np.arange(field), field)
        j0 = np.tile(np.arange(field), field)
        i1 = stride * np.repeat(np.arange(out_h), out_w)
        j1 = stride * np.tile(np.arange(out_w), out_h)
        i = i0.reshape(1, -1) + i1.reshape(-1, 1)  # (out_h*out_w, field*field)
        j = j0.reshape(1, -1) + j1.reshape(-1, 1)
        return i, j

    def im2col(
        self,
        x: np.ndarray,
        field: int,
        stride: int,
        pad: int,
        out_h: int,
        out_w: int,
    ) -> np.ndarray:
        """Unfold sliding windows into matrix rows (see nn.conv.im2col)."""
        n, c = x.shape[0], x.shape[1]
        if pad > 0:
            x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        i, j = self._window_offsets(field, stride, out_h, out_w)
        windows = x[:, :, i, j]  # (n, c, out_h*out_w, field*field)
        return windows.transpose(0, 2, 1, 3).reshape(
            n * out_h * out_w, c * field * field
        )

    def col2im(
        self,
        cols: np.ndarray,
        x_shape: Tuple[int, int, int, int],
        field: int,
        stride: int,
        pad: int,
        out_h: int,
        out_w: int,
    ) -> np.ndarray:
        """Adjoint scatter-add of :meth:`im2col`."""
        n, c, h, w = x_shape
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
        i, j = self._window_offsets(field, stride, out_h, out_w)
        windows = cols.reshape(n, out_h * out_w, c, field * field).transpose(
            0, 2, 1, 3
        )
        np.add.at(padded, (slice(None), slice(None), i, j), windows)
        if pad > 0:
            return padded[:, :, pad:-pad, pad:-pad]
        return padded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
