"""Operation/check accounting and set-up timing shared by the workloads."""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Outcome", "median_setup", "weights_digest", "counters"]


class Outcome:
    """What a run attempted, what failed, and the metric values it measured.

    Timed operations (training steps, stream batches, requests) and
    correctness checks both count as attempted; a failed check counts as a
    failed operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.values: Dict[str, float] = {}

    def ops(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed:
            self.failures.append(f"{what}: {failed}/{attempted} failed")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def median_setup(
    build: Callable[[], object],
    repeats: int,
    discard: Optional[Callable[[object], None]] = None,
    between: Optional[Callable[[], None]] = None,
) -> Tuple[float, object]:
    """Build ``repeats`` times; returns (median seconds, the last build).

    ``between`` runs, untimed, before each build (calibration slices).
    """
    times = []
    result = None
    for _ in range(repeats):
        if result is not None and discard is not None:
            discard(result)
        result = None  # free the previous build before timing the next
        if between is not None:
            between()
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def weights_digest(net) -> str:
    """Digest of every weight and bias byte of a network."""
    h = hashlib.sha256()
    for layer in net.layers:
        h.update(np.ascontiguousarray(layer.W).tobytes())
        h.update(np.ascontiguousarray(layer.b).tobytes())
    return h.hexdigest()


def counters(recorder) -> Dict[str, float]:
    """A copy of a recorder's counters."""
    return dict(recorder.snapshot()["counters"])
