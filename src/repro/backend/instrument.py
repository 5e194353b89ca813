"""Per-kernel observability wrapper for compute backends.

:class:`InstrumentedBackend` decorates any backend with the
:mod:`repro.obs` recorder: every kernel call lands one
``kernel.<name>`` timing (so ``trace-report`` can attribute wall-clock
to kernels), one sample in the ``kernel.seconds.<name>`` log-bucket
histogram (so per-call latency *distributions* survive merging and the
``/metrics`` scrape, not just totals), and, for the six GEMM kernels
(every kernel in ``KERNEL_NAMES`` but ``apply_activation``), a
``kernel.flops.<name>`` counter using the repository's
2-FLOPs-per-MAC convention.  Counters are deterministic for a fixed
seed — they participate in the golden traces — while timings and
histograms live in the (non-golden) wall-clock sections.

Trainers construct the wrapper themselves when built with a live
recorder; with the null recorder no wrapper exists and dispatch goes
straight to the raw backend (the no-op guarantee).
"""

from __future__ import annotations

import time

import numpy as np

from ..obs.counters import KERNEL_SECONDS_PREFIX, gemm_flops
from .base import KERNEL_NAMES

__all__ = ["InstrumentedBackend", "KERNEL_FLOPS_COUNTERS"]


def _rows(a: np.ndarray) -> int:
    return a.shape[0] if a.ndim == 2 else 1


def _flops_matmul(a, b):
    return gemm_flops(_rows(a), a.shape[-1], b.shape[-1] if b.ndim == 2 else 1)


def _flops_matmul_add_bias(a, w, bias):
    return gemm_flops(_rows(a), a.shape[-1], w.shape[-1])


def _flops_matmul_cols(a, w, bias, cols):
    return gemm_flops(_rows(a), a.shape[-1], len(cols))


def _flops_backprop_cols(delta, w, cols):
    return gemm_flops(_rows(delta), len(cols), w.shape[0])


def _flops_grad_cols(a_prev, delta):
    if a_prev.ndim == 1:
        return gemm_flops(a_prev.shape[0], 1, delta.shape[-1])
    return gemm_flops(a_prev.shape[1], a_prev.shape[0], delta.shape[-1])


def _flops_sampled_matmul(a, b, idx, scales):
    return gemm_flops(a.shape[0], idx.size, b.shape[1])


_FLOP_MODELS = {
    "matmul": _flops_matmul,
    "matmul_add_bias": _flops_matmul_add_bias,
    "matmul_cols": _flops_matmul_cols,
    "backprop_cols": _flops_backprop_cols,
    "grad_cols": _flops_grad_cols,
    "sampled_matmul": _flops_sampled_matmul,
}

#: counter name -> description; COUNTER_CATALOG in repro.obs.counters
#: carries matching entries (asserted by the backend test suite).
KERNEL_FLOPS_COUNTERS = {
    f"kernel.flops.{kernel}": f"GEMM FLOPs executed by the {kernel} kernel"
    for kernel in _FLOP_MODELS
}


class InstrumentedBackend:
    """A backend proxy recording per-kernel timings and FLOP counters."""

    def __init__(self, inner, recorder):
        self.inner = inner
        self.obs = recorder
        for kernel in KERNEL_NAMES:
            setattr(self, kernel, self._wrap(kernel, _FLOP_MODELS.get(kernel)))

    @property
    def name(self) -> str:
        """The wrapped backend's name (what ``backend.used.*`` records)."""
        return self.inner.name

    def _wrap(self, kernel: str, flop_model):
        fn = getattr(self.inner, kernel)
        timing = f"kernel.{kernel}"
        histogram = KERNEL_SECONDS_PREFIX + kernel
        counter = f"kernel.flops.{kernel}"
        obs = self.obs

        if flop_model is None:

            def timed(*args, **kwargs):
                start = time.perf_counter()
                out = fn(*args, **kwargs)
                dt = time.perf_counter() - start
                obs.add_time(timing, dt)
                obs.histogram(histogram, dt)
                return out

        else:

            def timed(*args, **kwargs):
                start = time.perf_counter()
                out = fn(*args, **kwargs)
                dt = time.perf_counter() - start
                obs.add_time(timing, dt)
                obs.histogram(histogram, dt)
                obs.add(counter, int(flop_model(*args, **kwargs)))
                return out

        timed.__name__ = kernel
        return timed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InstrumentedBackend({self.inner!r})"
