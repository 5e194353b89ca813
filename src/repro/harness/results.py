"""Experiment result persistence.

Serialises :class:`~repro.harness.experiment.ExperimentResult` to JSON and
back, and provides a tiny append-only :class:`ResultStore` so sweeps (the
Table 2 grid, depth sweeps, ...) can be resumed and compared across runs —
the paper's 50-epoch × 6-dataset grid is hours of compute even at
miniature scale, and losing it to a crash is not acceptable tooling.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from ..core.base import EpochStats, History
from .config import ExperimentConfig
from .experiment import ExperimentResult

__all__ = ["result_to_dict", "result_from_dict", "ResultStore"]


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-safe dictionary for one experiment result."""
    return {
        "config": asdict(result.config),
        "history": {
            "method": result.history.method,
            "epochs": [asdict(e) for e in result.history.epochs],
        },
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
    history = History(
        method=payload["history"]["method"],
        epochs=[EpochStats(**e) for e in payload["history"]["epochs"]],
    )
    return ExperimentResult(
        config=config,
        history=history,
        test_accuracy=float(payload["test_accuracy"]),
        confusion=np.asarray(payload["confusion"], dtype=np.int64),
        pred_entropy=float(payload["pred_entropy"]),
        n_distinct_predictions=int(payload["n_distinct_predictions"]),
        train_time=float(payload["train_time"]),
        memory_breakdown=dict(payload["memory_breakdown"]),
        trace=payload.get("trace"),
    )


class ResultStore:
    """Append-only JSON-lines store of experiment results.

    One result per line, so partially written files lose at most the last
    record and sweeps can append incrementally.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def append(self, result: ExperimentResult) -> None:
        """Append one result (creates the file/directories as needed)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(json.dumps(result_to_dict(result)) + "\n")

    def load(self) -> List[ExperimentResult]:
        """All stored results (empty list if the file does not exist)."""
        if not self.path.exists():
            return []
        results = []
        with open(self.path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    results.append(result_from_dict(json.loads(line)))
        return results

    def find(
        self,
        method: Optional[str] = None,
        dataset: Optional[str] = None,
        hidden_layers: Optional[int] = None,
    ) -> List[ExperimentResult]:
        """Stored results matching the given config fields."""
        out = []
        for result in self.load():
            cfg = result.config
            if method is not None and cfg.method != method:
                continue
            if dataset is not None and cfg.dataset != dataset:
                continue
            if hidden_layers is not None and cfg.hidden_layers != hidden_layers:
                continue
            out.append(result)
        return out

    def best(self, **filters) -> Optional[ExperimentResult]:
        """Highest-accuracy stored result matching the filters."""
        candidates = self.find(**filters)
        if not candidates:
            return None
        return max(candidates, key=lambda r: r.test_accuracy)
