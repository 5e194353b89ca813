"""Energy-consumption model for sampling-based training (paper §11).

The paper's closing future-work direction: "study the impact of
sampling-based techniques on energy efficiency."  This module provides a
first-order model:

    E_step = FLOPs · e_flop  +  DRAM bytes · e_dram  +  cache bytes · e_cache

with the arithmetic counts from :mod:`repro.harness.flops` and memory
traffic from the :mod:`repro.memsim` trace models.  The default energy
coefficients are representative desktop-CPU figures (double-precision
FMA ≈ 10 pJ/FLOP at the core, DRAM ≈ 20 pJ/byte, on-chip SRAM ≈ 1
pJ/byte); they are parameters, not claims — the *ratios between methods*
are the output of interest, mirroring how the rest of this reproduction
treats absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..memsim.profile import replay_trace
from .flops import method_step_flops

__all__ = ["EnergyModel", "EnergyEstimate", "estimate_training_energy"]


@dataclass
class EnergyEstimate:
    """Energy of one training step, split by source (Joules)."""

    compute_j: float
    dram_j: float
    cache_j: float

    @property
    def total_j(self) -> float:
        """Total estimated energy of the step."""
        return self.compute_j + self.dram_j + self.cache_j


class EnergyModel:
    """First-order CPU energy model.

    Parameters
    ----------
    pj_per_flop:
        Core energy per floating-point operation (picojoules).
    pj_per_dram_byte:
        Energy per byte transferred from main memory.
    pj_per_cache_byte:
        Energy per byte served by on-chip caches.
    hierarchy_scale:
        Cache scaling passed to :func:`repro.memsim.cache.default_hierarchy`
        (pairs with the trace model's byte scaling).
    """

    def __init__(
        self,
        pj_per_flop: float = 10.0,
        pj_per_dram_byte: float = 20.0,
        pj_per_cache_byte: float = 1.0,
        hierarchy_scale: float = 1.0 / 8.0,
    ):
        if min(pj_per_flop, pj_per_dram_byte, pj_per_cache_byte) < 0:
            raise ValueError("energy coefficients must be non-negative")
        self.pj_per_flop = float(pj_per_flop)
        self.pj_per_dram_byte = float(pj_per_dram_byte)
        self.pj_per_cache_byte = float(pj_per_cache_byte)
        self.hierarchy_scale = float(hierarchy_scale)

    def estimate_step(
        self,
        method: str,
        layer_sizes: Sequence[int],
        batch: int = 1,
        steps: int = 3,
        seed: int = 0,
        **method_kwargs,
    ) -> EnergyEstimate:
        """Energy of one training step of ``method`` on the architecture.

        Memory traffic is the per-step average of ``steps`` replayed
        trace steps (:func:`~repro.memsim.profile.replay_trace`), in
        float64 bytes.  Dropout's traffic follows the paper's mask-based
        trace while its FLOPs are column-sliced; ``topk`` has no trace of
        its own and follows the column-sliced one.
        """
        flops = method_step_flops(method, layer_sizes, batch, **method_kwargs)
        trace_method = method if method != "topk" else "dropout_sliced"
        traffic = replay_trace(
            trace_method, layer_sizes, batch=batch, steps=steps,
            hierarchy_scale=self.hierarchy_scale, seed=seed,
        )
        pj = 1e-12
        return EnergyEstimate(
            compute_j=flops.total * self.pj_per_flop * pj,
            dram_j=traffic.dram_bytes * self.pj_per_dram_byte * pj,
            cache_j=traffic.cache_bytes * self.pj_per_cache_byte * pj,
        )


def estimate_training_energy(
    layer_sizes: Sequence[int],
    batch: int = 1,
    methods: Sequence[str] = ("standard", "dropout", "adaptive_dropout", "mc", "alsh"),
    model: Optional[EnergyModel] = None,
    **method_kwargs,
) -> Dict[str, EnergyEstimate]:
    """Per-method per-step energy estimates for one architecture."""
    model = model if model is not None else EnergyModel()
    return {
        m: model.estimate_step(m, layer_sizes, batch=batch, **method_kwargs)
        for m in methods
    }
