"""Multi-table LSH index over flat bucket arrays, with partial rebuilds.

ALSH-approx assigns every layer L independent hash tables of 2^K buckets
(§5.2).  Querying returns the *union* of the colliding buckets across the L
tables — a set of candidate node ids — which becomes the layer's active set.
The index supports re-inserting a subset of items (after their weight
vectors change) without rebuilding untouched entries, mirroring the paper's
periodic hash-table updates.

Table maintenance and candidate lookup are the hot path of ALSH training
(the very path §9.2 says must be near-free for sampling to pay off), so
:class:`LSHIndex` stores the L tables as contiguous int arrays and serves
whole query batches with a handful of NumPy calls:

* hashing of all L tables is fused into one pass over the batch
  (:class:`~repro.lsh.srp.FusedSRP` — a single ``(B, dim) @ (dim, L·K)``
  GEMM — or :class:`~repro.lsh.dwta.FusedDWTA`);
* bucket membership is one CSR-style ``(offsets, members)`` pair spanning
  all L tables at once, addressed by *global* bucket ids
  ``t·2^K + code`` and storing *global* member ids ``t·n + item``, so a
  whole (batch × tables) probe is a single range-gather;
* the across-table candidate union marks each query's live candidates
  in a ``(queries × n_slots)`` bool hit map, and one ``np.nonzero``
  reads every row back sorted and unique — no sort, no ``set.union``
  per query.  The tombstone filter runs only while some table holds
  tombstones.

Storage layout
--------------
``item_gcode[t, i]``
    Current *global* bucket code of item ``i`` in table ``t`` (−1 = item
    never inserted).  This array is the ground truth; everything else is
    an inverted view.  Its row-major ravel is indexed directly by global
    member ids, which is what makes tombstone filtering one comparison.
``offsets[t]`` / ``members[t]`` (fused lazily into one global CSR)
    Snapshot of bucket membership at the last compaction.  ``offsets``
    is a dense directory of ``2^K + 1`` entries per table, which is why
    the table width is capped at :data:`MAX_BUCKET_BITS`.  Entries whose
    item has since moved buckets are *tombstones*: a member ``m`` listed
    under code ``c`` is live iff ``item_gcode`` still maps it to ``c``.
``extra_items[t]`` / ``extra_gcodes[t]``
    Entries appended by :meth:`LSHIndex.update` since the last
    compaction, scanned vectorized at query time.

:meth:`LSHIndex.update` therefore costs O(|ids|) appends — no bucket
surgery — which is what keeps the rebuild scheduler's frequent partial
re-inserts cheap.  When a table's garbage (tombstones + appended extras)
exceeds :attr:`LSHIndex.compact_garbage_frac` of its live items, the
table is re-packed into a fresh CSR snapshot with a single stable
argsort.

``tests/lsh/test_flat_backend.py`` checks every query against a plain
NumPy oracle that hashes one table at a time and groups items by code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
from .dwta import DensifiedWTA, FusedDWTA
from .srp import FusedSRP, SignedRandomProjection

__all__ = ["LSHIndex", "HASH_FAMILIES", "MAX_BUCKET_BITS"]

#: Family name → (one table's hash function, the fused L-table hasher).
_FAMILIES = {
    "srp": (SignedRandomProjection, FusedSRP),
    "dwta": (DensifiedWTA, FusedDWTA),
}
HASH_FAMILIES = tuple(_FAMILIES)

#: Widest table the layout holds: each table's bucket directory has
#: ``2^K + 1`` int64 offsets, 8 MiB per table at K = 20.
MAX_BUCKET_BITS = 20


def _gather_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices covering ``[starts[i], starts[i] + counts[i])`` ranges."""
    total = int(counts.sum())
    exclusive = np.cumsum(counts) - counts
    shift = np.repeat(starts - exclusive, counts)
    return np.arange(total, dtype=np.int64) + shift


def _dedup_sorted(values: np.ndarray) -> np.ndarray:
    """Unique values of a pre-sorted array (cheaper than ``np.unique``)."""
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class LSHIndex:
    """L independent K-bit hash tables over flat int arrays.

    Parameters
    ----------
    dim:
        Dimensionality of the (already transformed) vectors.
    n_bits:
        K — bits per table (2^K buckets, at most :data:`MAX_BUCKET_BITS`).
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

    #: Re-pack a table's CSR snapshot when its dead entries exceed this
    #: fraction of its live items.  The fraction is honoured at every
    #: table size — small tables compact after proportionally few
    #: updates (cheap, they are small), so ``garbage_fraction`` stays
    #: bounded by roughly ``frac / (1 + frac)`` under sustained churn.
    #: Tests override it on an instance to force or suppress compaction.
    compact_garbage_frac = 0.5

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
        if n_bits > MAX_BUCKET_BITS:
            raise ValueError(
                f"n_bits={n_bits} exceeds the index's limit of "
                f"{MAX_BUCKET_BITS} (a dense 2^n_bits bucket directory per table)"
            )
        if family not in _FAMILIES:
            raise ValueError(
                f"unknown hash family {family!r}; available: {HASH_FAMILIES}"
            )
        fn_class, bank_class = _FAMILIES[family]
        rng = rng if rng is not None else np.random.default_rng(seed)
        self.dim = int(dim)
        self.n_bits = int(n_bits)
        self.n_tables = int(n_tables)
        self.family = family
        self.obs: Recorder = recorder if recorder is not None else NULL_RECORDER
        self.fns = [fn_class(dim, n_bits, rng=rng) for _ in range(n_tables)]
        self.bank = bank_class(self.fns)
        self.n_buckets = 1 << self.n_bits
        # Global bucket-code base of each table: gcode = t·2^K + code.
        self._code_base = (
            np.arange(self.n_tables, dtype=np.int64) * self.n_buckets
        )
        self.compactions = 0  # maintenance counter (diagnostics)
        self._reset(0)

    # ------------------------------------------------------------------
    # storage management
    # ------------------------------------------------------------------
    def _reset(self, n_slots: int) -> None:
        L = self.n_tables
        self.item_gcode = np.full((L, n_slots), -1, dtype=np.int64)
        self._offsets = [
            np.zeros(self.n_buckets + 1, dtype=np.int64) for _ in range(L)
        ]
        self._members = [np.empty(0, dtype=np.int64) for _ in range(L)]
        self._extra_items: List[List[np.ndarray]] = [[] for _ in range(L)]
        self._extra_gcodes: List[List[np.ndarray]] = [[] for _ in range(L)]
        self._extra_len = [0] * L
        self._stale = [0] * L
        self._live = [0] * L
        self._fused_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._fused_extras: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def n_slots(self) -> int:
        """Highest item id ever stored, plus one."""
        return self.item_gcode.shape[1]

    def _grow(self, n_slots: int) -> None:
        pad = np.full(
            (self.n_tables, n_slots - self.n_slots), -1, dtype=np.int64
        )
        self.item_gcode = np.concatenate([self.item_gcode, pad], axis=1)
        self._fused_csr = None
        self._fused_extras = None

    def _compact(self, t: int) -> None:
        """Re-pack table ``t``'s CSR snapshot from ``item_gcode`` truth."""
        row = self.item_gcode[t]
        items = np.flatnonzero(row >= 0)
        codes = row[items] - self._code_base[t]
        order = np.argsort(codes, kind="stable")
        self._members[t] = items[order]
        offsets = np.zeros(self.n_buckets + 1, dtype=np.int64)
        offsets[1:] = np.cumsum(np.bincount(codes, minlength=self.n_buckets))
        self._offsets[t] = offsets
        self._extra_items[t] = []
        self._extra_gcodes[t] = []
        self._extra_len[t] = 0
        self._stale[t] = 0
        self._live[t] = int(items.size)
        self._fused_csr = None
        self._fused_extras = None
        self.compactions += 1

    def _fused(self) -> Tuple[np.ndarray, np.ndarray]:
        """One CSR over all tables: global bucket ids → global member ids.

        Table ``t``'s buckets occupy global ids ``[t·2^K, (t+1)·2^K)`` and
        its members are stored as ``t·n + item``, so a (batch × tables)
        probe needs no per-table loop.  Rebuilt lazily after mutations —
        a few small concatenates, nothing per-item.
        """
        if self._fused_csr is None:
            n = self.n_slots
            sizes = [m.size for m in self._members]
            base = np.concatenate([[0], np.cumsum(sizes)])
            offsets = np.concatenate(
                [
                    self._offsets[t][:-1] + base[t]
                    for t in range(self.n_tables)
                ]
                + [base[-1:]]
            )
            members = np.concatenate(
                [self._members[t] + t * n for t in range(self.n_tables)]
            )
            self._fused_csr = (offsets, members)
        return self._fused_csr

    def _extras(self, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """Table ``t``'s appended (local item, global code) entries."""
        chunks_i, chunks_c = self._extra_items[t], self._extra_gcodes[t]
        if not chunks_i:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if len(chunks_i) > 1:
            # Coalesce so repeated queries don't re-concatenate.
            self._extra_items[t] = [np.concatenate(chunks_i)]
            self._extra_gcodes[t] = [np.concatenate(chunks_c)]
        return self._extra_items[t][0], self._extra_gcodes[t][0]

    def _all_extras(self) -> Tuple[np.ndarray, np.ndarray]:
        """All tables' extras as (global member ids, global codes)."""
        if self._fused_extras is None:
            n = self.n_slots
            items_parts, code_parts = [], []
            for t in range(self.n_tables):
                e_items, e_gcodes = self._extras(t)
                if e_items.size:
                    items_parts.append(e_items + t * n)
                    code_parts.append(e_gcodes)
            if items_parts:
                self._fused_extras = (
                    np.concatenate(items_parts),
                    np.concatenate(code_parts),
                )
            else:
                empty = np.empty(0, dtype=np.int64)
                self._fused_extras = (empty, empty)
        return self._fused_extras

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def build(self, vectors: np.ndarray) -> None:
        """(Re)index a full collection; item ids are the row indices."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        n = vectors.shape[0]
        self._reset(n)
        if n:
            codes = self.bank.hash_all(vectors) + self._code_base[None, :]
            self.item_gcode = np.ascontiguousarray(codes.T)
        for t in range(self.n_tables):
            self._compact(t)
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
        """Re-insert (or newly insert) items after their vectors changed."""
        self.obs.add(LSH_UPDATES)
        if self.obs.enabled:
            self.obs.add(LSH_REHASHED_ITEMS, int(np.size(ids)))
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        if ids.size != vectors.shape[0]:
            raise ValueError(
                f"got {ids.size} ids for {vectors.shape[0]} vectors"
            )
        if ids.size == 0:
            return
        if (ids < 0).any():
            raise ValueError("item ids must be non-negative")
        if ids.size > 1:
            # Duplicate ids within one call: the last occurrence wins,
            # as if the items were inserted one after another.
            uniq, rev_first = np.unique(ids[::-1], return_index=True)
            if uniq.size != ids.size:
                keep = ids.size - 1 - rev_first
                ids, vectors = ids[keep], vectors[keep]
        if int(ids.max()) >= self.n_slots:
            self._grow(int(ids.max()) + 1)
        gcodes = self.bank.hash_all(vectors) + self._code_base[None, :]
        new = np.ascontiguousarray(gcodes.T)  # (L, n) — table-major
        old = self.item_gcode[:, ids]
        changed = old != new
        if not changed.any():
            return
        # One 2-D scatter updates the ground truth for every table at
        # once; unchanged entries rewrite their old value, a no-op.
        self.item_gcode[:, ids] = new
        self._fused_extras = None
        fresh = changed & (old < 0)
        stale = changed & (old >= 0)
        for t in np.flatnonzero(changed.any(axis=1)):
            mask = changed[t]
            self._extra_items[t].append(ids[mask])
            self._extra_gcodes[t].append(new[t, mask])
            self._extra_len[t] += int(np.count_nonzero(mask))
            self._stale[t] += int(np.count_nonzero(stale[t]))
            self._live[t] += int(np.count_nonzero(fresh[t]))
            garbage = self._stale[t] + self._extra_len[t]
            if garbage > self.compact_garbage_frac * self._live[t]:
                self._compact(t)

    def compact(self) -> int:
        """Force-compact every table that holds any garbage.

        Returns the number of tables re-packed.  Exposed so an external
        policy — e.g. the streaming trainer acting on the
        ``lsh.garbage_frac`` gauge — can re-pack on its own signal
        instead of waiting for the per-table threshold.
        """
        done = 0
        for t in range(self.n_tables):
            if self._stale[t] or self._extra_len[t]:
                self._compact(t)
                done += 1
        return done

    def clear(self) -> None:
        """Drop all stored items (hash functions are kept)."""
        self._reset(0)

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Bucket state as arrays: ``item_gcode`` alone is ground truth.

        Hash functions are *not* captured: they are a pure function of the
        construction seed, so the restoring index must be built with the
        same shape/family/seed (the trainers guarantee this by
        reconstructing from the same config).
        """
        return {"item_gcode": self.item_gcode.copy()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore bucket membership captured by :meth:`state_dict`.

        The CSR snapshot is re-packed per table from the restored
        ``item_gcode``, so subsequent queries return exactly the candidate
        sets the saved instance would have (internal compaction layout is
        not part of the contract — it never affects results).
        """
        if "item_gcode" not in state:
            raise ValueError(
                "LSH state has no 'item_gcode' array; checkpoints in the "
                "removed dict bucket layout (t<i>.items, t<i>.codes) "
                "cannot be loaded"
            )
        gcode = np.asarray(state["item_gcode"], dtype=np.int64)
        if gcode.ndim != 2 or gcode.shape[0] != self.n_tables:
            raise ValueError(
                f"item_gcode must be ({self.n_tables}, n) shaped, "
                f"got {gcode.shape}"
            )
        before = self.compactions
        self._reset(gcode.shape[1])
        self.item_gcode = np.ascontiguousarray(gcode)
        for t in range(self.n_tables):
            self._compact(t)
        self.compactions = before

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_batch(
        self, vectors: np.ndarray, record: bool = True
    ) -> List[np.ndarray]:
        """Sorted-unique candidate union across tables, one per query.

        Builds a ``(queries × n_slots)`` bool hit map, one byte per
        query and item slot.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        n_queries = vectors.shape[0]
        n = self.n_slots
        if n == 0:
            results = [np.empty(0, dtype=np.int64) for _ in range(n_queries)]
        else:
            results = self._query_batch(vectors, n)
        if record and self.obs.enabled:
            self.obs.add(LSH_QUERIES, len(results))
            self.obs.add(LSH_CANDIDATES, int(sum(r.size for r in results)))
        return results

    def _query_batch(self, vectors: np.ndarray, n: int) -> List[np.ndarray]:
        n_queries = vectors.shape[0]
        gcodes = self.bank.hash_all(vectors) + self._code_base[None, :]
        probes = gcodes.ravel()  # (B·L,) — query-major, tables contiguous
        gcode_flat = self.item_gcode.reshape(-1)  # indexed by global ids
        offsets, members_g = self._fused()
        starts = offsets[probes]
        counts = offsets[probes + 1] - starts
        # Probe (q, t) finds global ids t·n + item; adding (q − t)·n moves
        # each to q·n + item, its cell in the row-major hit map.
        shift = (
            np.arange(n_queries, dtype=np.int64)[:, None]
            - np.arange(self.n_tables, dtype=np.int64)[None, :]
        ).ravel() * n
        # Without tombstones every stored entry is live: the CSR members
        # never moved, and each extra was appended for a fresh item.
        filter_stale = any(self._stale)
        hit = np.zeros((n_queries, n), dtype=bool)
        if counts.any():
            gathered = members_g[_gather_ranges(starts, counts)]
            cells = gathered + np.repeat(shift, counts)
            if filter_stale:
                cells = cells[gcode_flat[gathered] == np.repeat(probes, counts)]
            hit.reshape(-1)[cells] = True
        e_items, e_gcodes = self._all_extras()
        if e_items.size:
            p_idx, e_idx = np.nonzero(probes[:, None] == e_gcodes[None, :])
            hits = e_items[e_idx]
            cells = hits + shift[p_idx]
            if filter_stale:
                cells = cells[gcode_flat[hits] == e_gcodes[e_idx]]
            hit.reshape(-1)[cells] = True
        # Across-table union: marking a cell twice is a no-op, and one
        # nonzero reads every row back sorted and unique.
        qids, items = np.nonzero(hit)
        bounds = np.searchsorted(qids, np.arange(n_queries + 1, dtype=np.int64))
        return [items[bounds[b] : bounds[b + 1]] for b in range(n_queries)]

    def query(self, vector: np.ndarray, record: bool = True) -> np.ndarray:
        """Union of colliding ids across all L tables, sorted and unique.

        ``record=False`` skips the query/candidate counters — used by
        read-only quality probes so measuring recall does not inflate
        the work counters the probe sits beside.  Bucket ranges are
        plain slices here, so the batch machinery (range gathers, fused
        keys) would be pure overhead.
        """
        result = self._query(np.asarray(vector, dtype=float).reshape(1, -1))
        if record:
            self.obs.add(LSH_QUERIES)
            if self.obs.enabled:
                self.obs.add(LSH_CANDIDATES, int(result.size))
        return result

    def _query(self, vector: np.ndarray) -> np.ndarray:
        if self.n_slots == 0:
            return np.empty(0, dtype=np.int64)
        gcodes = self.bank.hash_all(vector)[0] + self._code_base
        parts: List[np.ndarray] = []
        for t in range(self.n_tables):
            g = int(gcodes[t])
            c = g - t * self.n_buckets
            offsets = self._offsets[t]
            members = self._members[t][offsets[c] : offsets[c + 1]]
            if members.size:
                parts.append(members[self.item_gcode[t][members] == g])
            e_items, e_gcodes = self._extras(t)
            if e_items.size:
                hits = e_items[e_gcodes == g]
                if hits.size:
                    parts.append(hits[self.item_gcode[t][hits] == g])
        if not parts:
            return np.empty(0, dtype=np.int64)
        merged = np.sort(np.concatenate(parts))
        if merged.size == 0:
            return merged
        return _dedup_sorted(merged)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def bucket_loads(self) -> List[np.ndarray]:
        """Per-table array of live item counts for each occupied bucket."""
        loads = []
        for t in range(self.n_tables):
            row = self.item_gcode[t]
            codes = row[row >= 0] - self._code_base[t]
            counts = np.bincount(codes, minlength=self.n_buckets)
            loads.append(counts[counts > 0])
        return loads

    def garbage_fraction(self) -> float:
        """Fraction of stored entries that are tombstones or extras.

        Stale CSR members plus appended extras, over all entries the
        query path has to scan.  Rises between compactions and drops to
        0 when a table is re-packed; the obs probes surface it as a
        backend-health gauge.
        """
        scanned = sum(m.size for m in self._members) + sum(self._extra_len)
        if scanned == 0:
            return 0.0
        garbage = sum(self._stale) + sum(self._extra_len)
        return float(garbage) / float(scanned)

    def __len__(self) -> int:
        if self.n_slots == 0:
            return 0
        return int((self.item_gcode[0] >= 0).sum())
