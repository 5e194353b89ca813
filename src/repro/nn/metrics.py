"""Classification metrics used throughout the evaluation (§8.5, §10.3).

Besides accuracy and confusion matrices (the paper's Figure 3), this module
implements the diagnostics behind the §10.3 observation about ALSH-approx:
as depth grows, its *predicted-label distribution* collapses onto a few
classes.  :func:`prediction_entropy` and :func:`distinct_predictions`
quantify that collapse.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "accuracy",
    "confusion_matrix",
    "prediction_entropy",
    "distinct_predictions",
    "prediction_distribution",
]


def _validate(y_true: np.ndarray, y_pred: np.ndarray):
    y_true = np.asarray(y_true).reshape(-1)
    y_pred = np.asarray(y_pred).reshape(-1)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"shape mismatch: y_true {y_true.shape} vs y_pred {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("empty label arrays")
    return y_true.astype(int), y_pred.astype(int)


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of correct predictions, in [0, 1]."""
    y_true, y_pred = _validate(y_true, y_pred)
    return float((y_true == y_pred).mean())


def confusion_matrix(
    y_true: np.ndarray, y_pred: np.ndarray, n_classes: int
) -> np.ndarray:
    """Counts matrix ``M[i, j]`` = samples with true class i predicted j.

    Rows are true labels and columns predictions, matching the axes of the
    paper's Figure 3.
    """
    y_true, y_pred = _validate(y_true, y_pred)
    if n_classes <= 0:
        raise ValueError(f"n_classes must be positive, got {n_classes}")
    if y_true.max() >= n_classes or y_pred.max() >= n_classes:
        raise ValueError("labels exceed n_classes")
    if y_true.min() < 0 or y_pred.min() < 0:
        raise ValueError("labels must be non-negative")
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(m, (y_true, y_pred), 1)
    return m


def prediction_distribution(y_pred: np.ndarray, n_classes: int) -> np.ndarray:
    """Empirical distribution of the predicted labels."""
    y_pred = np.asarray(y_pred).reshape(-1).astype(int)
    if y_pred.size == 0:
        raise ValueError("empty prediction array")
    counts = np.bincount(y_pred, minlength=n_classes).astype(float)
    return counts / counts.sum()


def prediction_entropy(y_pred: np.ndarray, n_classes: int) -> float:
    """Shannon entropy (nats) of the predicted-label distribution.

    A healthy classifier on a balanced test set is near ``log(n_classes)``;
    the §10.3 ALSH collapse drives this towards 0.
    """
    p = prediction_distribution(y_pred, n_classes)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def distinct_predictions(y_pred: np.ndarray) -> int:
    """Number of distinct classes the model actually predicts."""
    y_pred = np.asarray(y_pred).reshape(-1)
    if y_pred.size == 0:
        raise ValueError("empty prediction array")
    return int(np.unique(y_pred).size)
