"""Experiment result (de)serialisation.

Converts :class:`~repro.harness.experiment.ExperimentResult` to a
JSON-safe dict and back.  Finished results are stored as ``ok`` outcome
records of the executor's :class:`~repro.harness.executor.JsonlSink`, so
sweeps (the Table 2 grid, depth sweeps, ...) can be resumed and compared
across runs.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from ..core.base import History
from .config import ExperimentConfig
from .experiment import ExperimentResult

__all__ = ["result_to_dict", "result_from_dict"]


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-safe dictionary for one experiment result."""
    return {
        "config": asdict(result.config),
        "history": result.history.to_dict(),
        "test_accuracy": result.test_accuracy,
        "confusion": result.confusion.tolist(),
        "pred_entropy": result.pred_entropy,
        "n_distinct_predictions": result.n_distinct_predictions,
        "train_time": result.train_time,
        "memory_breakdown": {k: int(v) for k, v in result.memory_breakdown.items()},
        "trace": result.trace,
    }


def result_from_dict(payload: dict) -> ExperimentResult:
    """Inverse of :func:`result_to_dict`.

    Records written before the ``backend`` config field was removed load
    when it is ``null`` or ``"reference"``; any other backend is refused.
    """
    fields = dict(payload["config"])
    backend = fields.pop("backend", None)
    if backend not in (None, "reference"):
        raise ValueError(
            f"stored result ran on the removed {backend!r} compute backend"
        )
    config = ExperimentConfig(**fields)
    return ExperimentResult(
        config=config,
        history=History.from_dict(payload["history"]),
        test_accuracy=float(payload["test_accuracy"]),
        confusion=np.asarray(payload["confusion"], dtype=np.int64),
        pred_entropy=float(payload["pred_entropy"]),
        n_distinct_predictions=int(payload["n_distinct_predictions"]),
        train_time=float(payload["train_time"]),
        memory_breakdown=dict(payload["memory_breakdown"]),
        trace=payload.get("trace"),
    )
