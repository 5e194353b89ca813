"""Multi-table LSH index with bucket storage and partial rebuilds.

ALSH-approx assigns every layer L independent hash tables of 2^K buckets
(§5.2).  Querying returns the *union* of the colliding buckets across the L
tables — a set of candidate node ids — which becomes the layer's active set.
The index supports re-inserting a subset of items (after their weight
vectors change) without rebuilding untouched entries, mirroring the paper's
periodic hash-table updates.  Buckets are stored as the flat CSR arrays of
:class:`~repro.lsh.flat.FlatHashTables`; this module adds the hash-family
choice and the observability counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..obs import NULL_RECORDER, Recorder
from ..obs.counters import (
    LSH_BUCKET_MAX_LOAD,
    LSH_BUCKETS_OCCUPIED,
    LSH_BUILDS,
    LSH_CANDIDATES,
    LSH_QUERIES,
    LSH_REHASHED_ITEMS,
    LSH_UPDATES,
)
from .dwta import DensifiedWTA
from .flat import FlatHashTables
from .srp import SignedRandomProjection

__all__ = ["LSHIndex", "make_hash_function", "HASH_FAMILIES"]

HASH_FAMILIES = ("srp", "dwta")


def make_hash_function(family: str, dim: int, n_bits: int, rng: np.random.Generator):
    """Build a hash function by family name ("srp" or "dwta")."""
    if family == "srp":
        return SignedRandomProjection(dim, n_bits, rng)
    if family == "dwta":
        return DensifiedWTA(dim, n_bits, rng=rng)
    raise ValueError(f"unknown hash family {family!r}; available: {HASH_FAMILIES}")


class LSHIndex:
    """L independent K-bit hash tables over a fixed vector collection.

    Parameters
    ----------
    dim:
        Dimensionality of the (already transformed) vectors.
    n_bits:
        K — bits per table (2^K buckets, at most
        :data:`~repro.lsh.flat.MAX_BUCKET_BITS`).
    n_tables:
        L — number of independent tables (paper default L = 5, K = 6).
    family:
        Hash family: "srp" (SimHash, the default) or "dwta"
        (densified winner-take-all, the SLIDE-style family).
    seed / rng:
        Reproducibility controls.  The L hash functions are drawn from
        the rng in table order, so a seed fixes every table.
    recorder:
        Observability sink (:mod:`repro.obs`); counts queries, candidate
        volume, builds and incremental re-hashes.  Defaults to the no-op
        :data:`~repro.obs.NULL_RECORDER`.
    """

    def __init__(
        self,
        dim: int,
        n_bits: int = 6,
        n_tables: int = 5,
        family: str = "srp",
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        recorder: Optional[Recorder] = None,
    ):
        if n_tables <= 0:
            raise ValueError(f"n_tables must be positive, got {n_tables}")
        rng = rng if rng is not None else np.random.default_rng(seed)
        self.dim = int(dim)
        self.n_bits = int(n_bits)
        self.n_tables = int(n_tables)
        self.family = family
        self.obs: Recorder = recorder if recorder is not None else NULL_RECORDER
        self.flat = FlatHashTables(
            [make_hash_function(family, dim, n_bits, rng) for _ in range(n_tables)]
        )

    def build(self, vectors: np.ndarray) -> None:
        """(Re)index a full collection; item ids are the row indices."""
        self.flat.build(np.atleast_2d(vectors))
        self.obs.add(LSH_BUILDS)
        if self.obs.enabled:
            loads = self.bucket_loads()
            if any(load.size for load in loads):
                self.obs.gauge(
                    LSH_BUCKET_MAX_LOAD,
                    max(int(load.max()) for load in loads if load.size),
                )
                self.obs.gauge(
                    LSH_BUCKETS_OCCUPIED,
                    sum(int(load.size) for load in loads),
                )

    def update(self, ids: np.ndarray, vectors: np.ndarray) -> None:
        """Re-insert only the given items (after their vectors changed)."""
        self.obs.add(LSH_UPDATES)
        if self.obs.enabled:
            self.obs.add(LSH_REHASHED_ITEMS, int(np.size(ids)))
        self.flat.update(ids, vectors)

    def compact(self) -> int:
        """Force-compact every table holding garbage; returns the count.

        Lets an external policy (the streaming trainer's garbage-gauge
        compaction) trigger re-packing instead of the per-table
        threshold.
        """
        return self.flat.compact()

    def query(self, vector: np.ndarray, record: bool = True) -> np.ndarray:
        """Union of colliding ids across all L tables, sorted.

        ``record=False`` skips the query/candidate counters — used by
        read-only quality probes so measuring recall does not inflate
        the work counters the probe sits beside.
        """
        result = self.flat.query(vector)
        if record:
            self.obs.add(LSH_QUERIES)
            if self.obs.enabled:
                self.obs.add(LSH_CANDIDATES, int(result.size))
        return result

    def query_batch(
        self, vectors: np.ndarray, record: bool = True
    ) -> List[np.ndarray]:
        """Per-query candidate sets for a batch."""
        results = self.flat.query_batch(np.atleast_2d(vectors))
        if record and self.obs.enabled:
            self.obs.add(LSH_QUERIES, len(results))
            self.obs.add(LSH_CANDIDATES, int(sum(r.size for r in results)))
        return results

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Bucket state of every table as npz-friendly flat arrays.

        Hash functions are *not* captured: they are a pure function of the
        construction seed, so the restoring index must be built with the
        same shape/family/seed (the trainers guarantee this by
        reconstructing from the same config).
        """
        return self.flat.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore bucket state captured by :meth:`state_dict`."""
        self.flat.load_state_dict(state)

    def bucket_loads(self) -> List[np.ndarray]:
        """Per-table array of item counts for each occupied bucket."""
        return self.flat.bucket_loads()

    def garbage_fraction(self) -> float:
        """Fraction of stored entries that are maintenance garbage.

        Tombstones and appended extras accumulate between compactions
        (see :mod:`repro.lsh.flat`); a health gauge for the quality
        probes.
        """
        return self.flat.garbage_fraction()

    def memory_bytes(self) -> int:
        """Rough memory footprint: hyperplanes plus bucket storage.

        Used by the §9.4-style memory analysis (table setup cost of
        ALSH-approx).
        """
        return self.flat.memory_bytes()

    def __len__(self) -> int:
        return len(self.flat)
