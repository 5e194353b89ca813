"""Drift-aware hash-table maintenance.

The paper's rebuild schedule (§9.2) is purely count-based: every N samples,
re-hash whatever changed.  But a touched column whose weights barely moved
still hashes to the same buckets with high probability — re-inserting it is
wasted work.  :class:`ColumnDriftTracker` keeps a snapshot of each column
as of its last re-hash and, at refresh time, selects only the columns whose
relative drift ‖w − w_ref‖/‖w_ref‖ exceeds a threshold.

This is an *extension* beyond the paper (its reference implementation
re-hashes all touched columns); the rebuild-schedule ablation bench
quantifies what it saves.  Threshold 0 reduces exactly to the paper's
behaviour, which is also the trainer's default.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["ColumnDriftTracker"]


class ColumnDriftTracker:
    """Tracks per-column weight drift since the last re-hash.

    Parameters
    ----------
    weights:
        The layer's weight matrix (n_in × n_out); a snapshot in the same
        memory layout is taken at construction, so its column reads are
        as contiguous as the weights' own.
    rel_threshold:
        Relative-drift threshold for :meth:`drifted`; 0 selects every
        queried column (the paper's re-hash-all-touched behaviour).
    """

    def __init__(self, weights: np.ndarray, rel_threshold: float = 0.1):
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        if rel_threshold < 0:
            raise ValueError(
                f"rel_threshold must be non-negative, got {rel_threshold}"
            )
        self.rel_threshold = float(rel_threshold)
        self._reference = weights.copy(order="K")

    def drift(self, weights: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Relative drift ‖w − w_ref‖/‖w_ref‖ for the given columns.

        Columns whose reference is (numerically) zero report infinite
        drift when they moved at all — they must be re-hashed.
        """
        cols = np.asarray(cols)
        delta = np.linalg.norm(
            weights[:, cols] - self._reference[:, cols], axis=0
        )
        ref = np.linalg.norm(self._reference[:, cols], axis=0)
        out = np.empty(cols.shape, dtype=float)
        zero_ref = ref == 0.0
        out[~zero_ref] = delta[~zero_ref] / ref[~zero_ref]
        out[zero_ref] = np.where(delta[zero_ref] > 0.0, np.inf, 0.0)
        return out

    def drifted(self, weights: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Subset of ``cols`` whose drift exceeds the threshold."""
        cols = np.asarray(cols)
        if cols.size == 0:
            return cols
        if self.rel_threshold == 0.0:
            return cols
        mask = self.drift(weights, cols) > self.rel_threshold
        return cols[mask]

    def mark_rehashed(self, weights: np.ndarray, cols: np.ndarray) -> None:
        """Reset the reference snapshot for re-hashed columns."""
        cols = np.asarray(cols)
        if cols.size:
            self._reference[:, cols] = weights[:, cols]

    @property
    def reference(self) -> np.ndarray:
        """The per-column reference snapshot (checkpoint support)."""
        return self._reference

    def restore_reference(self, reference: np.ndarray) -> None:
        """Replace the reference snapshot with a checkpointed copy.

        The copy keeps the current snapshot's layout, whichever layout
        the checkpoint stored.
        """
        reference = np.asarray(reference, dtype=float)
        if reference.shape != self._reference.shape:
            raise ValueError(
                f"reference shape {reference.shape} does not match "
                f"{self._reference.shape}"
            )
        self._reference = np.empty_like(self._reference)
        self._reference[...] = reference
