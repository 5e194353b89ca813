"""The compute-backend seam for the hot matrix kernels.

Every dense GEMM, subset product, scaled sampled-GEMM, fused-hash
projection and im2col in the repository dispatches through the active
:class:`~repro.backend.base.ComputeBackend`.  One implementation ships:
``reference``, the NumPy expressions, bitwise-preserving at float64 (the
no-op digest and golden-trace tests run under it), with the MC sampled
gather staged through a reusable scratch buffer.

The seam exists so wrappers can be swapped in without touching a
trainer: :class:`~repro.backend.instrument.InstrumentedBackend` (traced
runs), timing proxies and the kernel-capture tests.  A wrapper is
activated per trainer with the ``compute_backend=`` argument (a
server's ``backend=``) or per scope with :func:`use_backend`; outside
any scope kernels run on ``reference``.  The activation stack is
thread-local, so nested scopes behave like dynamic scoping and worker
threads never inherit another thread's scope.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import List, Optional, Union

from .base import ComputeBackend, KERNEL_NAMES, ScratchPool
from .instrument import InstrumentedBackend
from .reference import ReferenceBackend

__all__ = [
    "ComputeBackend",
    "ScratchPool",
    "KERNEL_NAMES",
    "ReferenceBackend",
    "InstrumentedBackend",
    "get_backend",
    "resolve_backend",
    "default_backend_name",
    "active_backend",
    "use_backend",
]

_REFERENCE = ReferenceBackend()
_local = threading.local()


def get_backend(name: str) -> ComputeBackend:
    """The shared instance for ``name``; ``reference`` is the only one."""
    if name != _REFERENCE.name:
        raise ValueError(
            f"unknown compute backend {name!r}; available: {_REFERENCE.name}"
        )
    return _REFERENCE


def resolve_backend(
    spec: Union[str, ComputeBackend, None],
) -> Optional[ComputeBackend]:
    """Normalise a name / instance / ``None`` spec to an instance (or None)."""
    if spec is None:
        return None
    if isinstance(spec, str):
        return get_backend(spec)
    return spec


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


@contextmanager
def use_backend(spec: Union[str, ComputeBackend]):
    """Activate a backend for the dynamic extent of the ``with`` block."""
    backend = resolve_backend(spec)
    if backend is None:
        raise ValueError("use_backend requires a backend name or instance")
    stack = _stack()
    stack.append(backend)
    try:
        yield backend
    finally:
        stack.pop()
