"""Pluggable compute backends for the hot matrix kernels.

Every dense GEMM, subset product, scaled sampled-GEMM, fused-hash
projection and im2col in the repository dispatches through the active
:class:`~repro.backend.base.ComputeBackend`.  Two implementations
ship:

``reference``
    Today's NumPy expressions, bitwise-preserving at float64 (the no-op
    digest and golden-trace tests run under it), with the MC sampled
    gather staged through a reusable scratch buffer.
``fast``
    float32 staging + sgemm with an optional float64-accumulation mode;
    per-kernel results match reference within
    :data:`~repro.backend.fast.FAST_RTOL`.

Selection (first match wins):

1. per-call: ``use_backend("fast")`` context manager / explicit
   ``get_backend(...)``;
2. per-trainer: the ``compute_backend=`` trainer argument (CLI:
   ``--backend``, harness: ``ExperimentConfig.backend``);
3. process default: ``set_default_backend("fast")``;
4. environment: ``REPRO_BACKEND=fast``;
5. fallback: ``reference``.

The thread-local activation stack means nested scopes behave like
dynamic scoping and worker threads fall back to the process default.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Union

from .base import ComputeBackend, KERNEL_NAMES, ScratchPool
from .fast import FAST_ATOL, FAST_RTOL, FastBackend
from .instrument import InstrumentedBackend
from .reference import ReferenceBackend

__all__ = [
    "ComputeBackend",
    "ScratchPool",
    "KERNEL_NAMES",
    "ReferenceBackend",
    "FastBackend",
    "InstrumentedBackend",
    "FAST_RTOL",
    "FAST_ATOL",
    "ENV_VAR",
    "available_backends",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "set_default_backend",
    "default_backend_name",
    "active_backend",
    "use_backend",
]

#: Environment variable consulted for the process-wide default.
ENV_VAR = "REPRO_BACKEND"

_REGISTRY: Dict[str, Callable[[], ComputeBackend]] = {
    "reference": ReferenceBackend,
    "fast": FastBackend,
}

_instances: Dict[str, ComputeBackend] = {}
_default_override: Optional[str] = None
_local = threading.local()


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def register_backend(name: str, factory: Callable[[], ComputeBackend]) -> None:
    """Register a custom backend factory under ``name``.

    Re-registering a name invalidates any cached instance so tests can
    swap implementations; traced runs of a custom backend should add a
    ``backend.used.<name>`` entry to the counter catalogue.
    """
    _REGISTRY[str(name)] = factory
    _instances.pop(str(name), None)


def get_backend(name: Optional[str] = None) -> ComputeBackend:
    """The shared instance for ``name`` (``None`` → the active backend)."""
    if name is None:
        return active_backend()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown compute backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    instance = _instances.get(name)
    if instance is None:
        instance = factory()
        _instances[name] = instance
    return instance


def resolve_backend(
    spec: Union[str, ComputeBackend, None],
) -> Optional[ComputeBackend]:
    """Normalise a name / instance / ``None`` spec to an instance (or None)."""
    if spec is None:
        return None
    if isinstance(spec, str):
        return get_backend(spec)
    return spec


def set_default_backend(name: Optional[str]) -> Optional[str]:
    """Set (or with ``None`` clear) the process default; returns the old one.

    Clearing restores the environment-variable lookup, so tests can
    monkeypatch :data:`ENV_VAR` and reset cleanly.
    """
    global _default_override
    if name is not None and name not in _REGISTRY:
        raise ValueError(
            f"unknown compute backend {name!r}; "
            f"available: {', '.join(available_backends())}"
        )
    previous = _default_override
    _default_override = name
    return previous


def default_backend_name() -> str:
    """The process default: override, else ``$REPRO_BACKEND``, else reference."""
    if _default_override is not None:
        return _default_override
    env = os.environ.get(ENV_VAR, "").strip()
    if env:
        if env not in _REGISTRY:
            raise ValueError(
                f"${ENV_VAR}={env!r} names no registered backend; "
                f"available: {', '.join(available_backends())}"
            )
        return env
    return "reference"


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
    return get_backend(default_backend_name())


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
