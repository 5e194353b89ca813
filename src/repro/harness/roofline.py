"""Roofline analysis of the training methods.

The paper's motivation section makes a memory argument before it makes an
arithmetic one: "large matrices often do not fit in the cache, and storing
them in main memory necessitates constant communication between the
processor and memory" (§1).  The roofline model makes that trade-off
explicit per method:

    predicted time = max( FLOPs / peak_flops , bytes / bandwidth )

A method is *compute-bound* when its arithmetic intensity (FLOPs per byte
of traffic) exceeds the machine balance point, *memory-bound* otherwise.
The interesting output: STANDARD's dense GEMMs are compute-bound at the
paper's widths, while column-sliced sampling (dropout/ALSH) drops the
intensity so far that the 18× FLOP saving buys far less wall time — the
quantitative version of why Table 3's measured speedups are nothing like
the arithmetic ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..memsim.profile import replay_trace
from .flops import method_step_flops

__all__ = ["RooflineMachine", "RooflinePoint", "method_roofline", "roofline_table"]

# Which trace model each method's traffic follows.  The dropout row pairs
# the column-sliced trace with the column-sliced FLOP model (this repo's
# implementation); the paper's mask-based reference behaviour is the
# `adaptive_dropout` row.  `topk` has no trace of its own; its memory
# behaviour is the column-sliced pattern.
_TRACE_FOR = {
    "standard": "standard",
    "dropout": "dropout_sliced",
    "adaptive_dropout": "adaptive_dropout",
    "mc": "mc",
    "alsh": "alsh",
    "topk": "dropout_sliced",
}


@dataclass(frozen=True)
class RooflineMachine:
    """A two-parameter machine: peak arithmetic rate and memory bandwidth.

    Defaults are single-core desktop-CPU figures (tens of double-precision
    GFLOP/s, tens of GB/s); the balance point — the intensity where compute
    and memory cost the same — is what matters for the orderings.
    """

    peak_gflops: float = 50.0
    bandwidth_gbs: float = 20.0

    def __post_init__(self):
        if self.peak_gflops <= 0 or self.bandwidth_gbs <= 0:
            raise ValueError("machine parameters must be positive")

    @property
    def balance_point(self) -> float:
        """FLOPs per byte where compute time equals memory time."""
        return self.peak_gflops / self.bandwidth_gbs

    def predicted_time(self, flops: float, traffic_bytes: float) -> float:
        """Roofline time (seconds) for one step."""
        compute = flops / (self.peak_gflops * 1e9)
        memory = traffic_bytes / (self.bandwidth_gbs * 1e9)
        return max(compute, memory)


@dataclass(frozen=True)
class RooflinePoint:
    """One method's position on the roofline."""

    method: str
    flops: float
    traffic_bytes: float
    predicted_time_s: float
    compute_bound: bool

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of memory traffic."""
        if self.traffic_bytes == 0:
            return float("inf")
        return self.flops / self.traffic_bytes


def method_roofline(
    method: str,
    layer_sizes: Sequence[int],
    batch: int = 1,
    machine: RooflineMachine = RooflineMachine(),
    seed: int = 0,
    **method_kwargs,
) -> RooflinePoint:
    """Roofline point for one method on one architecture."""
    try:
        trace_method = _TRACE_FOR[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; available: {sorted(_TRACE_FOR)}"
        ) from None
    flops = method_step_flops(method, layer_sizes, batch, **method_kwargs).total
    # Traffic = DRAM line transfers from the cache simulation, so gather
    # patterns pay line-granularity amplification and streaming patterns
    # get cache reuse — logical byte counts would flatter the gathers.
    traffic = replay_trace(trace_method, layer_sizes, batch=batch, seed=seed).dram_bytes
    time = machine.predicted_time(flops, traffic)
    intensity = flops / traffic if traffic else float("inf")
    return RooflinePoint(
        method=method,
        flops=flops,
        traffic_bytes=traffic,
        predicted_time_s=time,
        compute_bound=intensity >= machine.balance_point,
    )


def roofline_table(
    layer_sizes: Sequence[int],
    batch: int = 1,
    machine: RooflineMachine = RooflineMachine(),
    methods: Sequence[str] = tuple(_TRACE_FOR),
    **method_kwargs,
) -> Dict[str, RooflinePoint]:
    """Roofline points for every method on one architecture."""
    return {
        m: method_roofline(m, layer_sizes, batch, machine, **method_kwargs)
        for m in methods
    }
