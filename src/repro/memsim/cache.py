"""Trace-driven set-associative LRU cache simulator.

The paper's §9.4 memory analysis attributes the runtime differences between
the training methods to their cache behaviour on an Intel i9-9920X
(384 KB L1 / 12 MB L2 / 19.3 MB L3).  With no hardware counters available
offline, this simulator replays the *memory access extents* of each
method's matrix operations (see :mod:`repro.memsim.profile`) through a
configurable cache hierarchy and reports hits/misses per level — enough to
reproduce the paper's relative findings (Dropout ≈ +24 %, Adaptive-Dropout
≈ +27 % misses vs MC-approx).

Addresses are abstract byte offsets; an access extent ``(addr, nbytes)``
touches every cache line it overlaps.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

__all__ = ["CacheLevel", "CacheHierarchy", "default_hierarchy"]


class CacheLevel:
    """One set-associative LRU cache level.

    Parameters
    ----------
    size_bytes:
        Total capacity.
    line_size:
        Cache-line size in bytes (power of two).
    associativity:
        Ways per set; capacity must divide evenly into sets.
    name:
        Label used in reports ("L1", "L2", ...).
    """

    def __init__(
        self,
        size_bytes: int,
        line_size: int = 64,
        associativity: int = 8,
        name: str = "L?",
    ):
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line_size must be a power of two, got {line_size}")
        if size_bytes < line_size * associativity:
            raise ValueError("cache too small for one set")
        n_lines = size_bytes // line_size
        n_sets, rem = divmod(n_lines, associativity)
        if rem or n_sets == 0:
            raise ValueError(
                f"size {size_bytes} not divisible into sets of {associativity} "
                f"lines of {line_size} bytes"
            )
        self.name = name
        self.line_size = line_size
        self.associativity = associativity
        self.n_sets = n_sets
        # tags[set][way]; -1 = empty.  LRU order tracked with a clock.
        self._tags = np.full((n_sets, associativity), -1, dtype=np.int64)
        self._stamp = np.zeros((n_sets, associativity), dtype=np.int64)
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def access_line(self, line_addr: int) -> bool:
        """Access one line (by line index); returns True on hit."""
        set_idx = line_addr % self.n_sets
        tags = self._tags[set_idx]
        self._clock += 1
        hit = np.nonzero(tags == line_addr)[0]
        if hit.size:
            self._stamp[set_idx, hit[0]] = self._clock
            self.hits += 1
            return True
        self.misses += 1
        victim = int(np.argmin(self._stamp[set_idx]))
        tags[victim] = line_addr
        self._stamp[set_idx, victim] = self._clock
        return False

    @property
    def accesses(self) -> int:
        """Total line accesses seen."""
        return self.hits + self.misses

    def miss_rate(self) -> float:
        """Misses / accesses (0.0 when never accessed)."""
        total = self.accesses
        return self.misses / total if total else 0.0


class CacheHierarchy:
    """Inclusive multi-level hierarchy; a miss at level i probes level i+1.

    ``levels`` are ordered fastest-first.  A miss at the last level counts
    as main-memory traffic (``dram_accesses``).
    """

    def __init__(self, levels: List[CacheLevel]):
        if not levels:
            raise ValueError("need at least one cache level")
        line_sizes = {lvl.line_size for lvl in levels}
        if len(line_sizes) != 1:
            raise ValueError("all levels must share one line size")
        self.levels = levels
        self.line_size = levels[0].line_size
        self.dram_accesses = 0

    def access(self, addr: int, nbytes: int = 8) -> None:
        """Touch an extent; every overlapped line walks the hierarchy."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        first = addr // self.line_size
        last = (addr + nbytes - 1) // self.line_size
        for line in range(first, last + 1):
            for level in self.levels:
                if level.access_line(line):
                    break
            else:
                self.dram_accesses += 1

    def run_trace(self, trace: Iterable[Tuple[int, int]]) -> None:
        """Replay a sequence of (addr, nbytes) extents."""
        for addr, nbytes in trace:
            self.access(addr, nbytes)

    def report(self) -> dict:
        """Per-level hits/misses plus DRAM traffic, as a plain dict."""
        out = {}
        for level in self.levels:
            out[level.name] = {
                "hits": level.hits,
                "misses": level.misses,
                "miss_rate": level.miss_rate(),
            }
        out["dram_accesses"] = self.dram_accesses
        return out


def default_hierarchy(scale: float = 1.0 / 64.0) -> CacheHierarchy:
    """A hierarchy shaped like the paper's i9-9920X, scaled down.

    Full-size simulation of a 19.3 MB L3 is needlessly slow in Python;
    scaling the capacities *and* the working sets by the same factor
    preserves the hit/miss structure.  ``scale=1.0`` gives the real sizes
    (L1 384 KB, L2 12 MB, L3 ≈ 19.3 MB rounded to a valid geometry).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")

    def sized(nbytes: float, assoc: int) -> int:
        lines = max(int(nbytes * scale) // 64, assoc)
        lines -= lines % assoc
        return max(lines, assoc) * 64

    return CacheHierarchy(
        [
            CacheLevel(sized(384 * 1024, 8), 64, 8, "L1"),
            CacheLevel(sized(12 * 1024 * 1024, 8), 64, 8, "L2"),
            CacheLevel(sized(19 * 1024 * 1024 + 320 * 1024, 16), 64, 16, "L3"),
        ]
    )
