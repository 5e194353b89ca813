"""Minibatch iteration.

The paper's two training regimes are stochastic (batch size 1, the "S"
superscript) and minibatch (batch size 20, the "M" superscript);
:class:`BatchLoader` serves both, reshuffling every epoch from its own
generator so runs are reproducible independent of model initialisation.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["BatchLoader"]


class BatchLoader:
    """Shuffling minibatch iterator over (features, labels).

    Parameters
    ----------
    x, y:
        Features (2-D) and integer labels (1-D), equal first dimension.
    batch_size:
        1 for the paper's stochastic setting, 20 for minibatch (§8.4).
        When it does not divide the data, the last batch is the remainder.
    shuffle:
        Reshuffle order at the start of every epoch.
    seed:
        Shuffle reproducibility.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        batch_size: int = 20,
        shuffle: bool = True,
        seed: Optional[int] = None,
    ):
        x = np.asarray(x)
        y = np.asarray(y)
        if x.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {x.shape}")
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"{x.shape[0]} rows vs {y.shape[0]} labels")
        if x.shape[0] == 0:
            raise ValueError("empty dataset")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.x = x
        self.y = y
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.rng = np.random.default_rng(seed)

    @property
    def n_samples(self) -> int:
        """Total samples per epoch."""
        return self.x.shape[0]

    def __len__(self) -> int:
        """Number of batches per epoch, a partial last one included."""
        return -(-self.n_samples // self.batch_size)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        order = np.arange(self.n_samples)
        if self.shuffle:
            self.rng.shuffle(order)
        for start in range(0, self.n_samples, self.batch_size):
            idx = order[start : start + self.batch_size]
            yield self.x[idx], self.y[idx]
