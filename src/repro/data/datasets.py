"""Dataset container with the paper's train/test/validation splits.

A :class:`Dataset` bundles the three splits (§8.2 Table of splits) plus the
metadata the harness needs: class count, flat input dimensionality and the
original image shape (kept so the convolutional setting can reshape flat
rows back into NCHW tensors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

__all__ = ["Dataset"]


def _check_split(x: np.ndarray, y: np.ndarray, name: str):
    if x.ndim != 2:
        raise ValueError(f"{name} features must be 2-D, got shape {x.shape}")
    if y.ndim != 1:
        raise ValueError(f"{name} labels must be 1-D, got shape {y.shape}")
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"{name}: {x.shape[0]} feature rows vs {y.shape[0]} labels"
        )


@dataclass
class Dataset:
    """Feature/label splits for one benchmark.

    Features are flat float rows (``n_samples × input_dim``); labels are
    integer class ids.  The validation split may be empty.
    """

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    n_classes: int
    image_shape: Tuple[int, ...] = field(default=())

    def __post_init__(self):
        _check_split(self.x_train, self.y_train, "train")
        _check_split(self.x_test, self.y_test, "test")
        _check_split(self.x_val, self.y_val, "validation")
        if self.n_classes <= 1:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        widths = {self.x_train.shape[1], self.x_test.shape[1], self.x_val.shape[1]}
        if len(widths) != 1:
            raise ValueError(f"splits disagree on input_dim: {widths}")
        for y in (self.y_train, self.y_test, self.y_val):
            if y.size and (y.min() < 0 or y.max() >= self.n_classes):
                raise ValueError("labels out of range for n_classes")

    @property
    def input_dim(self) -> int:
        """Flat feature dimensionality (the network's ``m_i``)."""
        return self.x_train.shape[1]

    @property
    def n_train(self) -> int:
        """Number of training samples."""
        return self.x_train.shape[0]

    @property
    def n_test(self) -> int:
        """Number of test samples."""
        return self.x_test.shape[0]

    @property
    def n_val(self) -> int:
        """Number of validation samples."""
        return self.x_val.shape[0]

    def images(self, split: str = "train") -> np.ndarray:
        """Reshape a split's flat rows back into NCHW image tensors."""
        if not self.image_shape:
            raise ValueError(f"dataset {self.name!r} has no image shape")
        x = {"train": self.x_train, "test": self.x_test, "val": self.x_val}[split]
        c, h, w = self.image_shape
        return x.reshape(x.shape[0], c, h, w)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: {self.n_train}/{self.n_test}/{self.n_val} "
            f"train/test/val, dim={self.input_dim}, classes={self.n_classes}"
        )
