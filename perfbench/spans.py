"""Timing wrappers the benchmark installs around public calls of the program.

Nothing here edits the program: every wrapper replaces an attribute on one
instance (or, for the two sampler functions, rebinds a module name for the
duration of a ``with`` block) and records a span per call.  Spans nest, so a
layer's *self* time is its span's duration minus the spans of the calls it
made, and the self times of all layers inside one training step partition
that step exactly (integer nanoseconds, so no rounding can make a self time
negative).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.backend import KERNEL_NAMES

__all__ = [
    "SpanClock",
    "StepLog",
    "TimingBackend",
    "abba",
    "layer_of",
    "log_steps",
    "patched",
    "trace_steps",
    "wrap_attr",
]


def layer_of(key: str) -> str:
    """The layer a span key belongs to: ``"lsh.query"`` -> ``"lsh"``."""
    return key.split(".", 1)[0]


class SpanClock:
    """Exclusive-time accounting for nested wrapped calls.

    ``totals[key]`` holds ``[calls, total_ns, self_ns]``; ``layer_self[layer]``
    the self nanoseconds per layer.  Each thread keeps its own span stack, so
    spans recorded by a server's worker thread nest among themselves only.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        self.layer_self: Dict[str, int] = defaultdict(int)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> list:
        frame = [self._clock(), 0]  # start, nanoseconds spent in children
        self._stack().append(frame)
        return frame

    def exit(self, frame: list, key: str):
        """Close ``frame``; returns ``(duration_ns, self_ns)``."""
        duration = self._clock() - frame[0]
        stack = self._stack()
        stack.pop()
        self_ns = duration - frame[1]
        if stack:
            stack[-1][1] += duration
        with self._lock:
            entry = self.totals[key]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_ns
            self.layer_self[layer_of(key)] += self_ns
        return duration, self_ns

    def merge(self, other: "SpanClock") -> None:
        """Add another clock's totals to this one's."""
        with self._lock:
            for key, (calls, total, self_ns) in other.totals.items():
                entry = self.totals[key]
                entry[0] += calls
                entry[1] += total
                entry[2] += self_ns
            for layer, ns in other.layer_self.items():
                self.layer_self[layer] += ns

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. warm-up calls)."""
        with self._lock:
            self.totals.clear()
            self.layer_self.clear()

    def calls(self, key: str) -> int:
        return self.totals[key][0] if key in self.totals else 0

    def total_s(self, key: str) -> float:
        return self.totals[key][1] / 1e9 if key in self.totals else 0.0

    def self_s(self, layer: str) -> float:
        return self.layer_self.get(layer, 0) / 1e9


def wrap_attr(
    obj,
    attr: str,
    clock: SpanClock,
    key,
    observe: Optional[Callable] = None,
):
    """Replace ``obj.attr`` by a span-recording wrapper.

    ``key`` is a span key or a function ``(args, kwargs) -> key``.
    ``observe(result, duration_ns, args, kwargs)`` runs after each call.
    """
    fn = getattr(obj, attr)
    key_fn = key if callable(key) else None

    def wrapped(*args, **kwargs):
        frame = clock.enter()
        try:
            out = fn(*args, **kwargs)
        finally:
            duration, _ = clock.exit(
                frame, key_fn(args, kwargs) if key_fn else key
            )
        if observe is not None:
            observe(out, duration, args, kwargs)
        return out

    setattr(obj, attr, wrapped)


class TimingBackend:
    """A compute-backend proxy that records one span per kernel call.

    Passed as ``compute_backend=`` (or a server's ``backend=``); results are
    the inner backend's, untouched.
    """

    def __init__(self, inner, clock: SpanClock):
        self.inner = inner
        for kernel in KERNEL_NAMES:
            setattr(self, kernel, getattr(inner, kernel))
            wrap_attr(self, kernel, clock, f"backend.{kernel}")

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def scratch(self):
        return self.inner.scratch


class StepLog:
    """Per-step start times, durations and return values of one wrapped call.

    A traced log also keeps, per step, each layer's self time as a share
    of the step (the shares of one step sum to 1: every span inside the
    step belongs to exactly one layer).
    """

    def __init__(self):
        self.start_ns: List[int] = []
        self.duration_ns: List[int] = []
        self.results: list = []
        self.shares: List[Dict[str, float]] = []
        self._breaks = set()

    def mark(self) -> None:
        """Start a new segment: no cycle spans the gap before the next step."""
        self._breaks.add(len(self.start_ns))

    def durations_ms(self) -> List[float]:
        return [d / 1e6 for d in self.duration_ns]

    def cycles_ms(self) -> List[float]:
        """Time from each step's start to the next one's, within segments."""
        s = self.start_ns
        return [
            (s[i] - s[i - 1]) / 1e6
            for i in range(1, len(s))
            if i not in self._breaks
        ]


def log_steps(obj, attr: str, log: StepLog) -> None:
    """The untraced step wrapper: two clock reads and a list append."""
    fn = getattr(obj, attr)

    def step(*args, **kwargs):
        start = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        log.duration_ns.append(time.perf_counter_ns() - start)
        log.start_ns.append(start)
        log.results.append(out)
        return out

    setattr(obj, attr, step)


def trace_steps(obj, attr: str, log: StepLog, clock: SpanClock, key: str) -> None:
    """The traced step wrapper: a span plus the step's per-layer shares."""
    fn = getattr(obj, attr)

    def step(*args, **kwargs):
        before = dict(clock.layer_self)
        frame = clock.enter()
        try:
            out = fn(*args, **kwargs)
        finally:
            duration, _ = clock.exit(frame, key)
        log.start_ns.append(frame[0])
        log.duration_ns.append(duration)
        log.results.append(out)
        log.shares.append({
            layer: (ns - before.get(layer, 0)) / duration
            for layer, ns in clock.layer_self.items()
            if ns != before.get(layer, 0)
        })
        return out

    setattr(obj, attr, step)


def abba(chunks: int) -> List[bool]:
    """Chunk order for an untraced/traced pair: half A, all of B, half A.

    ``True`` marks a traced chunk.  Both runs see the start and the end of
    the measurement alike, and the pair switches only twice, so a run
    whose working set the other evicted from cache pays that once.
    """
    if chunks % 2:
        raise ValueError(f"abba needs an even chunk count, got {chunks}")
    half = [False] * (chunks // 2)
    return half + [True] * chunks + half


@contextmanager
def patched(module, names, clock: SpanClock, key_prefix: str):
    """Time module-level functions as bound in ``module`` for a block."""
    originals = {name: getattr(module, name) for name in names}
    try:
        for name in names:
            wrap_attr(module, name, clock, f"{key_prefix}.{name}")
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)
