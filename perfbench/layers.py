"""Wrappers for the optimizer and LSH layers, and the metrics they feed.

Every workload's traced run installs the same wrappers on whatever
instances it builds and reduces the merged spans and recorder counters
with :func:`shared_metrics`.
"""

from __future__ import annotations

from typing import Dict

from .metrics import GEMM_KERNELS, TIMED_KERNELS
from .spans import SpanClock, wrap_attr

__all__ = ["Tally", "install_optimizer", "install_lsh", "shared_metrics"]


class Tally(dict):
    """Counts the benchmark makes itself (candidates returned by LSH)."""

    def bump(self, name: str, value: int) -> None:
        self[name] = self.get(name, 0) + int(value)


def _optim_key(args, kwargs) -> str:
    index = kwargs.get("index", args[3] if len(args) > 3 else None)
    return "optim.dense" if index is None else "optim.lazy"


def install_optimizer(trainer, clock: SpanClock) -> None:
    """Time ``trainer.optimizer.update``, split into dense and lazy calls."""
    wrap_attr(trainer.optimizer, "update", clock, _optim_key)


def install_lsh(index, clock: SpanClock, tally: Tally) -> None:
    """Time one ``MIPSIndex``'s query, query_batch and update calls."""

    def one(out, duration, args, kwargs):
        tally.bump("lsh.queries", 1)
        tally.bump("lsh.candidates", len(out))

    def batch(out, duration, args, kwargs):
        tally.bump("lsh.queries", len(out))
        tally.bump("lsh.candidates", sum(len(c) for c in out))

    wrap_attr(index, "query", clock, "lsh.query", observe=one)
    wrap_attr(index, "query_batch", clock, "lsh.query_batch", observe=batch)
    wrap_attr(index, "update", clock, "lsh.update")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def shared_metrics(
    clock: SpanClock, counts: Dict[str, float], tally: Tally, batches: int
) -> Dict[str, float]:
    """Kernel, optimizer, sampler and LSH metrics of one workload.

    ``clock`` and ``counts`` are merged over the workload's traced
    segments; ``batches`` is the number of training batches that could
    have re-hashed LSH items.
    """
    out: Dict[str, float] = {}
    for kernel in TIMED_KERNELS:
        key = f"backend.{kernel}"
        out[f"{key}.us_per_call"] = _ratio(
            clock.total_s(key) * 1e6, clock.calls(key)
        )
    for kernel in GEMM_KERNELS:
        out[f"backend.{kernel}.gflops"] = _ratio(
            counts.get(f"kernel.flops.{kernel}", 0) / 1e9,
            clock.total_s(f"backend.{kernel}"),
        )
    for kind in ("dense", "lazy"):
        key = f"optim.{kind}"
        out[f"{key}.us_per_call"] = _ratio(
            clock.total_s(key) * 1e6, clock.calls(key)
        )
    out["optim.lazy.cols_per_call"] = _ratio(
        counts.get("optim.lazy_update_cols", 0),
        counts.get("optim.lazy_update_hits", 0),
    )
    out["approx.rows_kept_frac"] = _ratio(
        counts.get("sampler.rows_kept", 0), counts.get("sampler.rows_pool", 0)
    )
    for op in ("query", "query_batch", "update"):
        key = f"lsh.{op}"
        out[f"{key}.us_per_call"] = _ratio(
            clock.total_s(key) * 1e6, clock.calls(key)
        )
    out["lsh.candidates_per_query"] = _ratio(
        tally.get("lsh.candidates", 0), tally.get("lsh.queries", 0)
    )
    out["lsh.active_frac"] = _ratio(
        counts.get("lsh.active_nodes", 0), counts.get("lsh.active_pool", 0)
    )
    out["lsh.rehashed_items_per_batch"] = _ratio(
        counts.get("lsh.rehashed_items", 0), batches
    )
    return out
