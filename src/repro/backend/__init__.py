"""The compute-backend seam for the hot matrix kernels.

Every GEMM, subset product, scaled sampled-GEMM, hash projection and
activation of training and serving calls one of the seven kernels in
:data:`~repro.backend.base.KERNEL_NAMES` on the active backend
(im2col/col2im and the DWTA gather call NumPy directly).  One backend
ships, :class:`~repro.backend.base.ComputeBackend` (``reference``): the
NumPy expressions, bitwise-preserving at float64, with the MC sampled
gather staged through a reusable scratch buffer.

The seam exists so wrappers — any object with the seven kernels — can
be swapped in without touching a trainer:
:class:`~repro.backend.instrument.InstrumentedBackend` (traced runs),
timing proxies and the kernel-capture tests.  A trainer takes one as
``compute_backend=`` (a server as ``backend=``); :func:`use_backend`
activates one for a ``with`` block, and kernels find it one way,
:func:`active_backend`; outside any scope they run on ``reference``.
:func:`check_backend` refuses anything else, a name included, when a
trainer or server is built and when a scope is entered.  The
activation stack is thread-local, so worker threads never inherit
another thread's scope.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import List

from .base import ComputeBackend, KERNEL_NAMES, ScratchPool
from .instrument import InstrumentedBackend

__all__ = [
    "ComputeBackend",
    "ScratchPool",
    "KERNEL_NAMES",
    "InstrumentedBackend",
    "get_backend",
    "default_backend_name",
    "active_backend",
    "check_backend",
    "use_backend",
]

_REFERENCE = ComputeBackend()
_local = threading.local()


def get_backend(name: str) -> ComputeBackend:
    """The shared instance for ``name``; ``reference`` is the only one."""
    if name != _REFERENCE.name:
        raise ValueError(
            f"unknown compute backend {name!r}; available: {_REFERENCE.name}"
        )
    return _REFERENCE


def default_backend_name() -> str:
    """The backend kernels run on outside any scope: always ``reference``."""
    return _REFERENCE.name


def _stack() -> List[ComputeBackend]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def active_backend() -> ComputeBackend:
    """The backend kernels dispatch to right now (innermost scope wins)."""
    stack = _stack()
    if stack:
        return stack[-1]
    return _REFERENCE


def check_backend(backend, owner: str) -> None:
    """Refuse anything without the seven kernels of :data:`KERNEL_NAMES`,
    a name included, with a one-line ``TypeError`` naming ``owner``, the
    function or class that was given it."""
    if not all(callable(getattr(backend, k, None)) for k in KERNEL_NAMES):
        raise TypeError(
            f"{owner} needs a compute backend object, got {backend!r}"
        )


@contextmanager
def use_backend(backend):
    """Activate a backend object for the dynamic extent of the ``with`` block.

    Anything without the seven kernels, a name included, is refused here.
    """
    check_backend(backend, "use_backend")
    stack = _stack()
    stack.append(backend)
    try:
        yield backend
    finally:
        stack.pop()
