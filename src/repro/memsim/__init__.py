"""Memory and cache simulation for the §9.4 analysis.

A set-associative LRU cache hierarchy and per-method access-trace models
that reproduce the paper's relative cache-miss findings offline, replayed
through one function (:func:`replay_trace`).
"""

from .cache import CacheHierarchy, CacheLevel, default_hierarchy
from .profile import (
    ArrayRegion,
    MethodTraceModel,
    TraceReplay,
    estimate_training_memory,
    profile_methods,
    replay_trace,
)

__all__ = [
    "CacheLevel",
    "CacheHierarchy",
    "default_hierarchy",
    "ArrayRegion",
    "MethodTraceModel",
    "TraceReplay",
    "replay_trace",
    "profile_methods",
    "estimate_training_memory",
]
