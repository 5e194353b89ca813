"""Dataset corruptions for robustness studies.

The premise behind every method the paper evaluates is that "SGD is a
noisy algorithm by nature ... more tolerant of small amounts of noise"
(§4.2).  These corruptions let that premise be stress-tested: if a
sampling-based method's approximation noise composes badly with *data*
noise, its tolerance margin was already spent.  Each corruption is
deterministic given a seed and returns a new :class:`Dataset` (inputs are
never mutated in place).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .datasets import Dataset

__all__ = [
    "with_label_noise",
    "with_dead_features",
    "with_class_imbalance",
]


def _copy_with(data: Dataset, **updates) -> Dataset:
    fields = dict(
        name=data.name,
        x_train=data.x_train,
        y_train=data.y_train,
        x_test=data.x_test,
        y_test=data.y_test,
        x_val=data.x_val,
        y_val=data.y_val,
        n_classes=data.n_classes,
        image_shape=data.image_shape,
    )
    fields.update(updates)
    return Dataset(**fields)


def with_label_noise(
    data: Dataset, fraction: float, seed: Optional[int] = 0
) -> Dataset:
    """Flip a fraction of *training* labels to uniformly random others.

    Test/validation labels stay clean, so measured accuracy still means
    accuracy on the true task.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    y = data.y_train.copy()
    n_flip = int(round(fraction * y.shape[0]))
    if n_flip:
        idx = rng.choice(y.shape[0], size=n_flip, replace=False)
        offsets = rng.integers(1, data.n_classes, size=n_flip)
        y[idx] = (y[idx] + offsets) % data.n_classes
    return _copy_with(
        data, name=f"{data.name}+labelnoise{fraction:g}", y_train=y
    )


def with_dead_features(
    data: Dataset, fraction: float, seed: Optional[int] = 0
) -> Dataset:
    """Zero a random subset of feature columns in *every* split.

    Models dead sensors/pixels; the same columns die everywhere, so the
    train and test distributions stay matched.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    n_dead = int(round(fraction * data.input_dim))
    dead = rng.choice(data.input_dim, size=n_dead, replace=False)

    def kill(x: np.ndarray) -> np.ndarray:
        out = x.copy()
        if n_dead:
            out[:, dead] = 0.0
        return out

    return _copy_with(
        data,
        name=f"{data.name}+dead{fraction:g}",
        x_train=kill(data.x_train),
        x_test=kill(data.x_test),
        x_val=kill(data.x_val) if data.n_val else data.x_val,
    )


def with_class_imbalance(
    data: Dataset, keep_fraction: float, minority_classes: int = 1,
    seed: Optional[int] = 0,
) -> Dataset:
    """Subsample training rows of the lowest-id classes.

    ``minority_classes`` classes keep only ``keep_fraction`` of their
    training rows; evaluation splits stay balanced.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    if not 1 <= minority_classes < data.n_classes:
        raise ValueError(
            f"minority_classes must be in [1, {data.n_classes - 1}], "
            f"got {minority_classes}"
        )
    rng = np.random.default_rng(seed)
    keep = np.ones(data.n_train, dtype=bool)
    for cls in range(minority_classes):
        members = np.nonzero(data.y_train == cls)[0]
        n_keep = max(1, int(round(keep_fraction * members.size)))
        kept = set(rng.choice(members, size=n_keep, replace=False).tolist())
        for i in members:
            if int(i) not in kept:
                keep[i] = False
    return _copy_with(
        data,
        name=f"{data.name}+imbalanced{keep_fraction:g}",
        x_train=data.x_train[keep],
        y_train=data.y_train[keep],
    )
