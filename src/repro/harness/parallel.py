"""Parallel-speedup model for ALSH-approx (§9.2 / §10.4).

The paper repeatedly notes that ALSH-approx's practicality rests on
multi-core execution: "the hash table construction, computing hash
signature, querying hash tables, and updating weight vectors by sparse
weight gradients are parallelized", scaling "up to 2^6 processors" in the
original evaluation — while accuracy is unaffected by parallelism.  This
module models that with a per-phase Amdahl decomposition so the §10.4
decision tree ("ALSH-approx is the right choice up to 4 layers *given*
parallel hardware") can be regenerated quantitatively:

    T(P) = Σ_phase  serial_fraction·t + parallel_fraction·t / min(P, limit)

Phases and their parallelisable fractions follow the paper's description;
they are parameters, not measurements, and the benches only rely on the
orderings they produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

__all__ = [
    "PhaseProfile",
    "ALSH_PHASES",
    "projected_time",
    "speedup_curve",
]


@dataclass(frozen=True)
class PhaseProfile:
    """One phase of a training step under parallel execution.

    ``share`` is the phase's fraction of single-core step time;
    ``parallel_fraction`` the part of the phase that scales with cores;
    ``scaling_limit`` caps useful parallelism (e.g. L tables can use at
    most L cores for table probing).
    """

    name: str
    share: float
    parallel_fraction: float
    scaling_limit: int = 1 << 30

    def time_at(self, processors: int) -> float:
        """Phase time at P processors (single-core phase time = share)."""
        if processors < 1:
            raise ValueError(f"processors must be >= 1, got {processors}")
        p_eff = min(processors, self.scaling_limit)
        serial = (1.0 - self.parallel_fraction) * self.share
        parallel = self.parallel_fraction * self.share / p_eff
        return serial + parallel


# The paper's §9.2 phase list for ALSH-approx, with shares estimated from
# this repository's own sequential phase timings and scaling limits from
# the algorithm's structure (hash probes parallelise across L tables and
# samples; sparse updates across the active columns).
ALSH_PHASES: Sequence[PhaseProfile] = (
    PhaseProfile("hash_signatures", share=0.20, parallel_fraction=0.95),
    PhaseProfile("table_queries", share=0.15, parallel_fraction=0.90),
    PhaseProfile("sparse_products", share=0.35, parallel_fraction=0.90),
    PhaseProfile("sparse_updates", share=0.20, parallel_fraction=0.85),
    PhaseProfile("table_maintenance", share=0.10, parallel_fraction=0.80),
)


def projected_time(
    single_core_time: float,
    processors: int,
    phases: Sequence[PhaseProfile] = ALSH_PHASES,
) -> float:
    """Projected step/epoch time at P processors.

    ``single_core_time`` is a measured sequential time (e.g. from the
    Table 3 bench); the phase shares must sum to 1.
    """
    if single_core_time <= 0:
        raise ValueError(f"single_core_time must be positive, got {single_core_time}")
    total_share = sum(p.share for p in phases)
    if abs(total_share - 1.0) > 1e-9:
        raise ValueError(f"phase shares must sum to 1, got {total_share}")
    return single_core_time * sum(p.time_at(processors) for p in phases)


def speedup_curve(
    processors: Sequence[int],
    phases: Sequence[PhaseProfile] = ALSH_PHASES,
) -> Dict[int, float]:
    """Speedup over single-core for each processor count."""
    base = projected_time(1.0, 1, phases)
    return {p: base / projected_time(1.0, p, phases) for p in processors}
