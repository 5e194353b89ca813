"""The ``fast`` backend — float32 compute behind float64 interfaces.

Motivation (ISSUE 7): on the paper-scale shapes (§8.4: 1000-node layers,
batch 20–128) this box's BLAS runs sgemm 1.6–8× faster than dgemm, and
the sampled trainers' gather-then-GEMM patterns spend a further slice of
each step allocating operand copies.  This backend stages every GEMM
operand into pooled float32 scratch buffers (one cast-copy, reused
across batches) and runs the product in float32, returning float64 so
callers see the usual dtypes.

Accuracy contract
-----------------
* ``precision="float32"`` (the registered default): each kernel's result
  matches the reference backend within :data:`FAST_RTOL` relative /
  :data:`FAST_ATOL` absolute tolerance *per kernel call* (property-tested
  across kernel calls captured from all six trainers).  Whole training
  runs are NOT guaranteed to track the float64 trajectory: the sampling
  trainers branch on comparisons (LSH signs, top-k order, Bernoulli
  probabilities), so a one-ulp flip can legitimately diverge two runs.
* ``accumulate="float64"``: operands are still quantised to float32 but
  the product accumulates in float64 (``np.matmul(..., dtype=float64)``)
  — tighter error on long inner dimensions at dgemm speed; useful for
  separating quantisation error from accumulation error.
* ``precision="float64"``: no quantisation anywhere; inherits the
  reference kernels unchanged and is bitwise-equal to ``reference``.

Kernels fall back to the reference expression whenever the operands are
not float64 or the product is too small to amortise the casts
(:data:`FAST_MIN_MACS`), so tiny per-sample products never pay staging
overhead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .reference import ReferenceBackend

__all__ = ["FastBackend", "FAST_RTOL", "FAST_ATOL", "FAST_MIN_MACS"]

#: Documented per-kernel-call tolerance of the float32 path vs reference.
#: sgemm rounds each MAC to ~1e-7 relative; inner dimensions up to ~10^4
#: and cancellation headroom put single-call error well inside 2e-4
#: relative (the property tests in tests/backend assert this bound).
FAST_RTOL = 2e-4
FAST_ATOL = 1e-6

#: Multiply-accumulates below which casting costs more than sgemm saves;
#: smaller products use the float64 reference path unchanged.
FAST_MIN_MACS = 1 << 15


class FastBackend(ReferenceBackend):
    """float32-staged GEMM kernels with pooled scratch operands."""

    name = "fast"

    def __init__(self, precision: str = "float32", accumulate: Optional[str] = None):
        super().__init__()
        if precision not in ("float32", "float64"):
            raise ValueError(
                f"precision must be 'float32' or 'float64', got {precision!r}"
            )
        if accumulate not in (None, "float32", "float64"):
            raise ValueError(
                f"accumulate must be None, 'float32' or 'float64', "
                f"got {accumulate!r}"
            )
        self.precision = precision
        self.accumulate = accumulate or precision
        self._quantise = precision == "float32"
        self._acc64 = self._quantise and self.accumulate == "float64"

    # ------------------------------------------------------------------
    # staging helpers
    # ------------------------------------------------------------------
    def _eligible(self, macs: int, *operands: np.ndarray) -> bool:
        if not self._quantise or macs < FAST_MIN_MACS:
            return False
        return all(
            op.ndim == 2 and op.dtype == np.float64 for op in operands
        )

    def _stage(self, slot: str, arr: np.ndarray) -> np.ndarray:
        """Cast-copy ``arr`` into the pooled float32 buffer for ``slot``."""
        buf = self.scratch.get(slot, arr.shape, np.float32)
        buf[...] = arr
        return buf

    def _product(self, a32: np.ndarray, b32: np.ndarray) -> np.ndarray:
        """The staged product; float64 output, fresh array."""
        if self._acc64:
            return np.matmul(a32, b32, dtype=np.float64)
        out32 = self.scratch.get(
            "out", (a32.shape[0], b32.shape[-1]), np.float32
        )
        np.matmul(a32, b32, out=out32)
        return out32.astype(np.float64)

    # ------------------------------------------------------------------
    # dense GEMM
    # ------------------------------------------------------------------
    def matmul(self, a, b):
        if a.ndim != 2 or b.ndim != 2 or not self._eligible(
            a.size * b.shape[1], a, b
        ):
            return super().matmul(a, b)
        return self._product(self._stage("matmul.a", a), self._stage("matmul.b", b))

    def matmul_add_bias(self, a, w, bias):
        if not self._eligible(a.size * w.shape[-1], a, w):
            return super().matmul_add_bias(a, w, bias)
        z = self._product(self._stage("fwd.a", a), self._stage("fwd.w", w))
        z += bias
        return z

    # ------------------------------------------------------------------
    # subset products
    # ------------------------------------------------------------------
    def matmul_cols(self, a, w, bias, cols):
        if not self._eligible(a.size * len(cols), a, w):
            return super().matmul_cols(a, w, bias, cols)
        ws = self.scratch.get("cols.w", (w.shape[0], len(cols)), np.float32)
        ws[...] = w[:, cols]
        z = self._product(self._stage("cols.a", a), ws)
        if bias is not None:
            z += bias[cols]
        return z

    def matmul_rows(self, a, w, bias, rows, scale=None):
        if not self._eligible(a.shape[0] * len(rows) * w.shape[1], a, w):
            return super().matmul_rows(a, w, bias, rows, scale)
        ga = self.scratch.get("rows.a", (a.shape[0], len(rows)), np.float32)
        ga[...] = a[:, rows]
        if scale is not None:
            np.multiply(ga, scale.astype(np.float32), out=ga)
        ws = self.scratch.get("rows.w", (len(rows), w.shape[1]), np.float32)
        ws[...] = w[rows, :]
        z = self._product(ga, ws)
        if bias is not None:
            z += bias
        return z

    def backprop_cols(self, delta, w, cols):
        if delta.ndim == 1 or not self._eligible(delta.size * w.shape[0], delta, w):
            return super().backprop_cols(delta, w, cols)
        ws = self.scratch.get("bp.w", (w.shape[0], len(cols)), np.float32)
        ws[...] = w[:, cols]
        return self._product(self._stage("bp.delta", delta), ws.T)

    def grad_cols(self, a_prev, delta):
        if a_prev.ndim == 1 or not self._eligible(
            a_prev.size * delta.shape[-1], a_prev, delta
        ):
            return super().grad_cols(a_prev, delta)
        return self._product(
            self._stage("gw.delta", delta).T, self._stage("gw.a", a_prev)
        ).T

    # ------------------------------------------------------------------
    # scaled sampled-GEMM — the fused float32 path
    # ------------------------------------------------------------------
    def sampled_matmul(self, a, b, idx, scales):
        if idx.size == 0 or not self._eligible(
            a.shape[0] * idx.size * b.shape[1], a, b
        ):
            return super().sampled_matmul(a, b, idx, scales)
        ga = self.scratch.get("sampled.a32", (a.shape[0], idx.size), np.float32)
        ga[...] = a[:, idx]
        np.multiply(ga, scales.astype(np.float32), out=ga)
        gb = self.scratch.get("sampled.b32", (idx.size, b.shape[1]), np.float32)
        gb[...] = b[idx, :]
        return self._product(gb.T, ga.T).T
