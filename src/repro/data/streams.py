"""Streaming data with concept drift.

The paper's §2 motivates CPU training with client-side personalisation:
models fine-tuned on device against *user data that keeps changing*.  For
hash-based methods this regime is adversarial in a specific way — the
tables index yesterday's weight columns against today's inputs — so the
repository provides a drift substrate to study it.

:class:`DriftingStream` yields minibatches from a class-prototype model
(the same construction as :mod:`repro.data.synthetic`) whose prototypes
rotate slowly in feature space: after ``period`` batches each prototype
has moved a fixed angle towards a fresh random direction.  Labels stay
meaningful throughout (the Bayes classifier tracks the rotation), so a
learner that adapts keeps its accuracy and a frozen one decays.

A drift step moves every class in one vectorised slerp; each class keeps
its own ``p @ t`` cosine and row-wise normalisation, and reached targets
are redrawn in class order, so a seed fixes the stream bit for bit.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["DriftingStream"]


class DriftingStream:
    """An infinite minibatch stream whose class structure drifts.

    Parameters
    ----------
    dim:
        Feature dimensionality.
    n_classes:
        Number of classes.
    batch_size:
        Samples per emitted batch.
    drift_per_batch:
        Rotation angle (radians) each prototype moves per batch towards
        its target direction; 0 disables drift.
    noise:
        Per-feature Gaussian noise on samples.
    seed:
        Reproducibility control.
    """

    def __init__(
        self,
        dim: int,
        n_classes: int,
        batch_size: int = 20,
        drift_per_batch: float = 0.01,
        noise: float = 0.5,
        seed: Optional[int] = 0,
    ):
        if dim <= 1:
            raise ValueError(f"dim must be at least 2, got {dim}")
        if n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {n_classes}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if drift_per_batch < 0:
            raise ValueError(
                f"drift_per_batch must be non-negative, got {drift_per_batch}"
            )
        if noise < 0:
            raise ValueError(f"noise must be non-negative, got {noise}")
        self.dim = int(dim)
        self.n_classes = int(n_classes)
        self.batch_size = int(batch_size)
        self.drift_per_batch = float(drift_per_batch)
        self.noise = float(noise)
        self.rng = np.random.default_rng(seed)
        self._protos = self._unit(self.rng.normal(size=(n_classes, dim)))
        self._targets = self._unit(self.rng.normal(size=(n_classes, dim)))
        self.batches_emitted = 0

    @staticmethod
    def _unit(v: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
        norms[norms == 0] = 1.0
        return v / norms

    def prototypes(self) -> np.ndarray:
        """Current class prototypes (unit vectors), copied."""
        return self._protos.copy()

    def _rotate_towards(self) -> None:
        """Move each prototype ``drift_per_batch`` radians toward its
        target; targets are refreshed when (nearly) reached.

        The stack of ``(1, dim) @ (dim, 1)`` products runs NumPy's dot
        kernel once per class, as ``p @ t`` does, so every cosine is the
        one a per-class step computes.
        """
        protos, targets = self._protos, self._targets
        cos = np.matmul(protos[:, None, :], targets[:, :, None])[:, 0, 0]
        cos = np.clip(cos, -1.0, 1.0)
        angle = np.arccos(cos)
        reached = angle < self.drift_per_batch + 1e-6
        move = np.flatnonzero(~reached)
        if move.size:
            # Slerp a small step along the geodesic from p to t.
            angle = angle[move, None]
            step = self.drift_per_batch / angle
            sin = np.sin(angle)
            new = (
                np.sin((1 - step) * angle) / sin * protos[move]
                + np.sin(step * angle) / sin * targets[move]
            )
            protos[move] = self._unit(new)
        redraw = np.flatnonzero(reached)
        if redraw.size:
            targets[redraw] = self._unit(
                self.rng.normal(size=(redraw.size, self.dim))
            )

    def next_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        """Emit one (x, y) batch and advance the drift."""
        labels = self.rng.integers(0, self.n_classes, size=self.batch_size)
        x = self._protos[labels] * 3.0 + self.rng.normal(
            scale=self.noise, size=(self.batch_size, self.dim)
        )
        if self.drift_per_batch > 0:
            self._rotate_towards()
        self.batches_emitted += 1
        return x, labels

    def eval_batch(self, n: int = 200) -> Tuple[np.ndarray, np.ndarray]:
        """A held-out batch from the *current* distribution (no drift
        advance, independent noise)."""
        rng = np.random.default_rng(self.rng.integers(2**31))
        labels = rng.integers(0, self.n_classes, size=n)
        x = self._protos[labels] * 3.0 + rng.normal(
            scale=self.noise, size=(n, self.dim)
        )
        return x, labels

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> Tuple[dict, dict]:
        """Mutable stream state as ``(meta, arrays)`` for checkpointing.

        Captures the generator state, drift position and batch count;
        the static parameters (dim, drift rate, noise, …) are *not*
        captured — the restoring stream must be constructed with the
        same ones.  A restored stream emits exactly the batches the
        saved one would have (``eval_batch`` draws from the same rng, so
        evaluation cadence is part of the reproduced trajectory).
        """
        meta = {
            "rng_state": self.rng.bit_generator.state,
            "batches_emitted": int(self.batches_emitted),
        }
        arrays = {
            "protos": self._protos.copy(),
            "targets": self._targets.copy(),
        }
        return meta, arrays

    def load_state_dict(self, meta: dict, arrays: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        protos = np.asarray(arrays["protos"], dtype=float)
        targets = np.asarray(arrays["targets"], dtype=float)
        expect = (self.n_classes, self.dim)
        if protos.shape != expect or targets.shape != expect:
            raise ValueError(
                f"stream state shaped {protos.shape}/{targets.shape}, "
                f"expected {expect} — was the stream built with the same "
                "dim/n_classes?"
            )
        self.rng.bit_generator.state = meta["rng_state"]
        self.batches_emitted = int(meta["batches_emitted"])
        self._protos = protos
        self._targets = targets

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        while True:
            yield self.next_batch()
