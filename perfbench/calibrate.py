"""A fixed reference workload that measures how fast the machine is right now.

The benchmark shares its machine with other tenants, whose load changes
the speed of everything running here by tens of percent over tens of
seconds.  A :class:`Calibrator` runs short slices of fixed NumPy and
Python work — small-array kernels and interpreter work like a batch-1
step, and a memory-bound update like a dense SGD step — between the
workload's chunks.  Its *speed* is the reference time of that work over
the measured time (above 1 means a faster machine than the reference).
End-to-end metrics are divided (throughput) or multiplied (times) by the
speed measured around them (set-up builds, timed segment), so a slow spell of the machine moves the workload and the
calibration alike and cancels out, while a change to the program moves
only the workload.  The raw values are printed beside them.

The calibration never calls the program, so no program change can move
it, but it does share the process: CPU work a change leaves running in
the background while the calibration runs is partly normalised away.
"""

from __future__ import annotations

import math
import time

import numpy as np

__all__ = ["Calibrator", "normalize"]

#: seconds one slice of each part takes on the reference machine.
REFERENCE_S = {"interp": 0.0013, "memory": 0.0014}
#: run a slice after at least this much workload time.
SLICE_EVERY_S = 0.25
#: slices before each set-up build.
SETUP_SLICES = 2


class Calibrator:
    """Interleaved slices of fixed reference work and their speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(20, 32))
        self._w = rng.normal(size=(32, 128))
        self._v = rng.normal(size=(128, 8))
        self._p = rng.normal(size=(1000, 1000))  # 8 MB, like a weight matrix
        self._g = rng.normal(size=(1000, 1000)) * 1e-12
        self.seconds = {part: 0.0 for part in REFERENCE_S}
        self.slices = 0
        self._since = time.perf_counter()

    def _interp(self) -> None:
        x, w, v = self._x, self._w, self._v
        for _ in range(60):
            h = np.maximum(x @ w, 0.0)
            o = h @ v
            order = np.argsort(o[:, 0])
            float(o[order].sum())
            {j: j + 1 for j in range(20)}  # plain interpreter work

    def _memory(self) -> None:
        for _ in range(2):
            np.subtract(self._p, self._g, out=self._p)

    def run_slice(self, count: int = 1) -> None:
        """Run ``count`` slices of every part now."""
        for _ in range(count):
            for part, fn in (("interp", self._interp), ("memory", self._memory)):
                start = time.perf_counter()
                fn()
                self.seconds[part] += time.perf_counter() - start
            self.slices += 1
        self._since = time.perf_counter()

    def slices_before_build(self) -> None:
        """The slices run before each set-up build."""
        self.run_slice(SETUP_SLICES)

    def tick(self) -> None:
        """Run a slice if the workload has run long enough since the last."""
        if time.perf_counter() - self._since >= SLICE_EVERY_S:
            self.run_slice()

    def part_speeds(self) -> dict:
        """Reference time over measured time, per part."""
        if not self.slices:
            raise ValueError("no calibration slice has run")
        return {
            part: REFERENCE_S[part] * self.slices / self.seconds[part]
            for part in REFERENCE_S
        }

    def speed(self) -> float:
        """Geometric mean of the part speeds."""
        speeds = self.part_speeds().values()
        return math.exp(sum(math.log(s) for s in speeds) / len(speeds))


def normalize(
    out, setup_cal: Calibrator, cal: Calibrator,
    setup_s: float, rate: float, latency_ms: float,
) -> None:
    """Store the end-to-end metrics at reference speed; print the raw ones.

    Set-up time is scaled by the speed measured between the set-up builds
    (``setup_cal``), throughput and latency by the speed measured during
    the timed segment (``cal``).
    """
    setup_speed, speed = setup_cal.speed(), cal.speed()
    print(
        f"  raw: setup {setup_s:.4g} s, {rate:.5g} samples/s, p50 "
        f"{latency_ms:.4g} ms; machine speed {speed:.3f} x reference ("
        + ", ".join(f"{k} {v:.3f}" for k, v in cal.part_speeds().items())
        + f"; {cal.slices} calibration slices), during set-up {setup_speed:.3f}"
    )
    out.values.update({
        "setup_s": setup_s * setup_speed,
        "samples_per_s": rate / speed,
        "latency_ms.p50": latency_ms * speed,
    })
