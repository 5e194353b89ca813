"""Declarative experiment sweeps with resume support.

The paper's evaluation is a grid: methods × datasets × depths × batch
sizes.  :class:`Sweep` expands such a grid into configs and runs them
through the fault-tolerant
:class:`~repro.harness.executor.ExperimentExecutor` (serially by default,
across worker processes with ``workers > 1``).  Outcomes stream into the
executor's :class:`~repro.harness.executor.JsonlSink`, and — because the
grid is hours of compute at full scale — configurations whose results are
already stored are skipped, so an interrupted sweep resumes where it
stopped.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from ..data.datasets import Dataset
from .config import ExperimentConfig
from .executor import ExecutorError, ExperimentExecutor, JsonlSink
from .experiment import ExperimentResult

__all__ = ["Sweep"]


class Sweep:
    """A grid of experiment configurations.

    Parameters
    ----------
    base:
        The configuration every grid point starts from.
    grid:
        Mapping of :class:`ExperimentConfig` field names to the values to
        sweep; the cartesian product defines the grid.  ``method_kwargs``
        may be swept like any other field (values are dicts).
    paper_defaults:
        When True, each grid point is rebuilt via
        :meth:`ExperimentConfig.paper_default` for its method, so §8.4
        method-specific settings (Adam for ALSH, lr for MC^S, p = 0.05)
        are applied before the grid's overrides.
    """

    def __init__(
        self,
        base: ExperimentConfig,
        grid: Dict[str, Sequence],
        paper_defaults: bool = False,
    ):
        if not grid:
            raise ValueError("grid must contain at least one swept field")
        valid_fields = set(asdict(base))
        unknown = set(grid) - valid_fields
        if unknown:
            raise ValueError(f"unknown config fields in grid: {sorted(unknown)}")
        for field, values in grid.items():
            if not values:
                raise ValueError(f"grid field {field!r} has no values")
        self.base = base
        self.grid = {k: list(v) for k, v in grid.items()}
        self.paper_defaults = bool(paper_defaults)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        n = 1
        for values in self.grid.values():
            n *= len(values)
        return n

    def configs(self) -> Iterator[ExperimentConfig]:
        """Expand the grid, in deterministic field order."""
        fields = sorted(self.grid)
        for combo in itertools.product(*(self.grid[f] for f in fields)):
            updates = dict(zip(fields, combo))
            if self.paper_defaults:
                method = updates.pop("method", self.base.method)
                batch = updates.pop("batch_size", self.base.batch_size)
                cfg = ExperimentConfig.paper_default(method, batch_size=batch)
                # Carry the base's non-default fields, then the grid's.
                base_updates = {
                    k: v
                    for k, v in asdict(self.base).items()
                    if k not in ("method", "batch_size", "lr", "optimizer",
                                 "method_kwargs")
                }
                cfg = cfg.with_overrides(**base_updates)
                yield cfg.with_overrides(**updates)
            else:
                yield self.base.with_overrides(**updates)

    # ------------------------------------------------------------------
    def run(
        self,
        store: Optional[Union[str, Path, JsonlSink]] = None,
        dataset: Optional[Dataset] = None,
        resume: bool = True,
        callback: Optional[Callable[[ExperimentResult], None]] = None,
        workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 0,
    ) -> List[ExperimentResult]:
        """Run every grid point; returns all results (stored + fresh).

        The grid runs through an
        :class:`~repro.harness.executor.ExperimentExecutor` whose sink is
        ``store``; with ``resume=True`` configurations that already have
        an ``ok`` record there are skipped and the stored result is
        returned in their place.  ``callback`` fires once per fresh
        result.  ``workers``, ``timeout`` and ``retries`` are forwarded to
        the executor; result order is the grid order regardless of worker
        scheduling.  Raises :class:`ExecutorError` if any configuration
        still fails after its retries.
        """
        configs = list(self.configs())

        def on_outcome(outcome):
            if outcome.ok and callback is not None:
                callback(outcome.result)

        executor = ExperimentExecutor(
            max_workers=workers, timeout=timeout, retries=retries, sink=store
        )
        outcomes = executor.run(
            configs,
            dataset=dataset,
            resume=resume and store is not None,
            callback=on_outcome,
        )
        failures = [o for o in outcomes if not o.ok]
        if failures:
            detail = "; ".join(
                f"{configs[o.index].label()}: [{o.status}] "
                f"{(o.error or '').strip().splitlines()[-1]}"
                for o in failures
            )
            raise ExecutorError(
                f"{len(failures)}/{len(configs)} sweep configurations "
                f"failed: {detail}"
            )
        return [o.result for o in outcomes]
