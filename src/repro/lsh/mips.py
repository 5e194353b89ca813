"""Maximum inner-product search over a mutable vector collection.

:class:`MIPSIndex` is the engine behind ALSH-approx's active-node selection:
the collection is the set of weight columns of a layer, queries are the
layer's input activation vectors, and a query returns the ids of columns
likely to have large inner product with the query (Eq. 4 of the paper).

:func:`exact_mips` is the brute-force reference used in tests and as a
deterministic "oracle sampler" ablation.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..obs import Recorder
from .alsh import AsymmetricTransform
from .tables import LSHIndex

__all__ = ["MIPSIndex", "exact_mips", "exact_mips_batch"]


def exact_mips(data: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k rows of ``data`` with largest ⟨row, query⟩."""
    data = np.atleast_2d(data)
    if not 1 <= k <= data.shape[0]:
        raise ValueError(f"k must be in [1, {data.shape[0]}], got {k}")
    scores = data @ np.asarray(query, dtype=float).reshape(-1)
    top = np.argpartition(-scores, k - 1)[:k]
    return top[np.argsort(-scores[top])]


def exact_mips_batch(data: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Row-wise :func:`exact_mips`: an ``(m, k)`` array of top-k ids.

    One GEMM over the whole query batch instead of ``m`` GEMVs — the
    brute-force baseline the serving head's recall probe and bench
    compare against.
    """
    data = np.atleast_2d(data)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if not 1 <= k <= data.shape[0]:
        raise ValueError(f"k must be in [1, {data.shape[0]}], got {k}")
    scores = queries @ data.T
    top = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    order = np.argsort(-np.take_along_axis(scores, top, axis=1), axis=1)
    return np.take_along_axis(top, order, axis=1)


class MIPSIndex:
    """ALSH-based approximate MIPS with incremental updates.

    Parameters
    ----------
    dim:
        Dimensionality of the stored vectors (weight-column length).
    n_bits, n_tables:
        LSH shape (paper defaults K = 6, L = 5).
    m, scale:
        Asymmetric transform parameters (paper default m = 3).
    family:
        Hash family — "srp" (default) or "dwta".
    seed:
        Reproducibility control for the hash hyperplanes.
    recorder:
        Observability sink forwarded to the underlying :class:`LSHIndex`
        (query/candidate/update counters).
    """

    def __init__(
        self,
        dim: int,
        n_bits: int = 6,
        n_tables: int = 5,
        m: int = 3,
        scale: float = 0.83,
        family: str = "srp",
        seed: Optional[int] = None,
        recorder: Optional[Recorder] = None,
    ):
        self.transform = AsymmetricTransform(m=m, scale=scale)
        self.index = LSHIndex(
            self.transform.output_dim(dim),
            n_bits=n_bits,
            n_tables=n_tables,
            family=family,
            seed=seed,
            recorder=recorder,
        )
        self.dim = int(dim)
        self._data_scale: Optional[float] = None
        # Times update() had to abandon the cached build-time scale
        # because an updated vector's norm overflowed it (diagnostics).
        self.scale_refits = 0

    @property
    def data_scale(self) -> Optional[float]:
        """Scaling factor of the stored items (None before any is stored)."""
        return self._data_scale

    def build(self, data: np.ndarray) -> None:
        """Index a collection; item ids are row indices into ``data``."""
        data = np.atleast_2d(data)
        if data.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {data.shape[1]}")
        transformed, s = self.transform.transform_data(data)
        self._data_scale = s
        self.index.build(transformed)

    def update(self, ids: np.ndarray, data: np.ndarray) -> None:
        """Re-index a subset of items after their vectors changed.

        The subset is scaled with the factor cached by the last
        :meth:`build`, so a partial re-hash lands items exactly where a
        fresh full build would; on an index never built, the first
        update fits the factor and caches it the same way.  If an
        updated vector's norm exceeds the cached maximum, the factor
        would map it beyond the transform's ``scale`` bound U — the
        asymmetric padding terms are then invalid and recall silently
        degrades — so the scaling is refit on the subset and the
        tighter factor is adopted for subsequent updates.
        """
        data = np.atleast_2d(data)
        if data.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {data.shape[1]}")
        ids = np.asarray(ids).reshape(-1)
        if ids.size == 0:
            return
        reuse = self._data_scale
        overflow = False
        if reuse is not None:
            max_norm = float(np.sqrt((data * data).sum(axis=1).max()))
            if max_norm * reuse > self.transform.scale * (1.0 + 1e-12):
                reuse = None  # cached scale overflows the U bound: refit
                overflow = True
        transformed, s = self.transform.transform_data(data, scale=reuse)
        self.index.update(ids, transformed)
        if reuse is None:
            # Adopt the fitted factor, as build() does, so later updates
            # of this or smaller-norm columns share it.  After an
            # overflow it is strictly tighter than the cached one.
            self._data_scale = s
        self.scale_refits += int(overflow)

    def query(self, query: np.ndarray, record: bool = True) -> np.ndarray:
        """Candidate item ids colliding with the query (sorted, unique).

        ``record=False`` suppresses the query/candidate counters (the
        read-only probe path — probe lookups must not count as work).
        """
        q = self.transform.transform_query_one(np.asarray(query, dtype=float))
        return self.index.query(q, record=record)

    def query_batch(
        self, queries: np.ndarray, record: bool = True
    ) -> List[np.ndarray]:
        """Candidate sets for a batch of queries."""
        q = self.transform.transform_query(np.asarray(queries, dtype=float))
        return self.index.query_batch(q, record=record)

    def garbage_fraction(self) -> float:
        """Backend-health stat of the underlying tables (see LSHIndex)."""
        return self.index.garbage_fraction()

    def compact(self) -> int:
        """Force-compact the underlying tables (see LSHIndex)."""
        return self.index.compact()

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self):
        """Mutable index state as ``(meta, arrays)`` for checkpointing.

        Captures the bucket tables plus the fitted P-transform scale; the
        hash hyperplanes are reproduced from the construction seed, so the
        restoring instance must be built with the same parameters.
        """
        meta = {"n_items": len(self), "data_scale": self._data_scale}
        return meta, self.index.state_dict()

    def load_state_dict(self, meta, arrays) -> None:
        """Restore state captured by :meth:`state_dict`.

        The item count is the restored tables' slot count; ``n_items``
        in ``meta`` is written for readers of the checkpoint only.
        """
        scale = meta["data_scale"]
        self._data_scale = None if scale is None else float(scale)
        self.index.load_state_dict(arrays)

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the underlying tables."""
        return self.index.memory_bytes()

    def __len__(self) -> int:
        """Highest item id stored, plus one."""
        return self.index.n_slots
