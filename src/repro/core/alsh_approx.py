"""ALSH-APPROX — hashing-based active-node selection (§5.2, Spring &
Shrivastava [50]).

Each hidden layer owns L hash tables over (the ALSH transform of) its weight
*columns*.  For every input, the layer's incoming activation vector is
hashed and the union of the colliding buckets becomes the layer's *active
set*; exact inner products are computed only for those nodes and the
gradient flows back only through them (sparse column updates).  Hash tables
are refreshed on the paper's schedule — every 100 samples for the first
10 000, then every 1 000 — re-inserting only the columns whose weights
changed.

The output layer is always exact (all classes are candidates), matching the
reference implementation.

This is a faithfully *sequential* implementation: the paper's §9.2 notes
the reference system's speed comes from parallelising table maintenance
across cores, while accuracy is unaffected by parallelism — so accuracy
results here transfer, and the timing benches reproduce the paper's
single-CPU numbers where ALSH-approx is the slowest method.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..lsh.drift import ColumnDriftTracker
from ..lsh.mips import MIPSIndex
from ..lsh.rebuild import RebuildScheduler
from ..nn.network import MLP
from ..obs import Recorder
from ..obs.counters import (
    LSH_ACTIVE_NODES,
    LSH_ACTIVE_POOL,
    LSH_REBUILDS,
    LSH_REHASHED_COLUMNS,
)
from .columns import ColumnSamplingTrainer

__all__ = ["ALSHApproxTrainer"]


class ALSHApproxTrainer(ColumnSamplingTrainer):
    """ALSH-approx with per-layer MIPS indexes and sparse updates.

    Parameters
    ----------
    n_bits, n_tables, m, scale:
        LSH shape — paper defaults K = 6, L = 5, m = 3 (§8.4).
    min_active_frac, max_active_frac:
        Bounds on the active-set size as a fraction of layer width.  The
        lower bound keeps a layer from going dark when no bucket collides;
        the upper bound caps the work per step (the paper reports active
        sets around 5 % of nodes).
    optimizer:
        Paper uses Adam for ALSH-approx (§8.4).
    hash_family:
        "srp" (SimHash, the default) or "dwta" (densified winner-take-all,
        the SLIDE-style family — see :mod:`repro.lsh.dwta`).
    rebuild:
        Hash-table refresh schedule; defaults to the paper's 100/1000
        policy with a 10 000-sample warm-up.
    drift_threshold:
        Optional extension beyond the paper: at refresh time, re-hash only
        the touched columns whose relative weight drift since their last
        re-hash exceeds this value (see :mod:`repro.lsh.drift`).  ``None``
        (default) reproduces the paper's re-hash-all-touched behaviour.
        The streaming trainer runs the same refresh on its own cadence.
    batch_mode:
        "per_sample" (default): each sample selects and trains its own
        active sets — the algorithm as published, exact at any batch size.
        "union": one vectorised step per batch using the union of the
        samples' candidate sets per layer (the paper notes the reference
        system amortises table work over "a batch of inputs"; the union is
        the natural minibatch generalisation and is much faster in NumPy).
        Quality probes sample the forward of the mode that trains.
    """

    name = "alsh"

    def __init__(
        self,
        network: MLP,
        lr: float = 1e-3,
        optimizer="adam",
        n_bits: int = 6,
        n_tables: int = 5,
        m: int = 3,
        scale: float = 0.83,
        min_active_frac: float = 0.05,
        max_active_frac: float = 0.25,
        hash_family: str = "srp",
        rebuild: Optional[RebuildScheduler] = None,
        drift_threshold: Optional[float] = None,
        batch_mode: str = "per_sample",
        seed: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        compute_backend=None,
    ):
        super().__init__(
            network,
            lr=lr,
            optimizer=optimizer,
            seed=seed,
            recorder=recorder,
            compute_backend=compute_backend,
        )
        if not 0.0 < min_active_frac <= max_active_frac <= 1.0:
            raise ValueError(
                "need 0 < min_active_frac <= max_active_frac <= 1, got "
                f"{min_active_frac}, {max_active_frac}"
            )
        if batch_mode not in ("per_sample", "union"):
            raise ValueError(
                f"batch_mode must be 'per_sample' or 'union', got {batch_mode!r}"
            )
        self.min_active_frac = float(min_active_frac)
        self.max_active_frac = float(max_active_frac)
        self.batch_mode = batch_mode
        self.shared_active_set = batch_mode == "union"
        self.rebuild = rebuild if rebuild is not None else RebuildScheduler()

        self.n_hidden = len(network.layers) - 1
        self.indexes: List[MIPSIndex] = []
        for i in range(self.n_hidden):
            layer = network.layers[i]
            index = MIPSIndex(
                dim=layer.n_in,
                n_bits=n_bits,
                n_tables=n_tables,
                m=m,
                scale=scale,
                family=hash_family,
                seed=int(self.rng.integers(2**31)),
                recorder=self.obs,
            )
            with self._backend_scope():
                index.build(layer.W.T)  # items are weight columns
            self.indexes.append(index)
        self._touched: List[Set[int]] = [set() for _ in range(self.n_hidden)]
        self.drift_threshold = drift_threshold
        self._drift: Optional[List[ColumnDriftTracker]] = None
        if drift_threshold is not None:
            self._drift = [
                ColumnDriftTracker(network.layers[i].W, drift_threshold)
                for i in range(self.n_hidden)
            ]
        self.rehashed_columns = 0  # maintenance-work counter (diagnostics)
        # Diagnostics: running mean of |active| / n_out per layer.
        self._active_sum = np.zeros(self.n_hidden)
        self._active_count = 0

    # ------------------------------------------------------------------
    # active-set selection
    # ------------------------------------------------------------------
    def _bounds(self, n_out: int):
        lo = max(1, int(round(self.min_active_frac * n_out)))
        hi = max(lo, int(round(self.max_active_frac * n_out)))
        return lo, hi

    def _select_active(self, layer_idx, a_prev, rng=None, record=True):
        """Query the layer's index and clamp the candidate set size.

        A batch (2-D ``a_prev``, "union" mode) takes the union of its
        samples' candidate sets.  ``record=False`` (probes) goes through
        the index's counters-off lookup and updates no diagnostics.
        """
        rng = self.rng if rng is None else rng
        n_out = self.net.layers[layer_idx].n_out
        index = self.indexes[layer_idx]
        if a_prev.ndim == 1:
            candidates = index.query(a_prev, record=record)
        else:
            union: Set[int] = set()
            for cand in index.query_batch(a_prev, record=record):
                union.update(cand.tolist())
            candidates = np.fromiter(
                sorted(union), dtype=np.int64, count=len(union)
            )
        lo, hi = self._bounds(n_out)
        if candidates.size > hi:
            candidates = rng.choice(candidates, size=hi, replace=False)
            candidates.sort()
        elif candidates.size < lo:
            pool = np.setdiff1d(np.arange(n_out), candidates)
            extra = rng.choice(pool, size=lo - candidates.size, replace=False)
            candidates = np.union1d(candidates, extra)
        if record:
            self._active_sum[layer_idx] += candidates.size / n_out
            if layer_idx == 0:  # one forward pass per first-layer selection
                self._active_count += 1
            if self.obs.enabled:
                self.obs.add(LSH_ACTIVE_NODES, int(candidates.size))
                self.obs.add(LSH_ACTIVE_POOL, int(n_out))
        return candidates

    def average_active_fraction(self) -> np.ndarray:
        """Mean active fraction per hidden layer since construction."""
        if self._active_count == 0:
            return np.zeros(self.n_hidden)
        return self._active_sum / self._active_count

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def _after_step(self, active_sets: List[np.ndarray], batch: int) -> None:
        """Mark the updated columns for re-hashing; refresh on schedule.

        Active-set sizes are counted at selection time instead, inference
        included.
        """
        for touched, cols in zip(self._touched, active_sets):
            touched.update(cols.tolist())
        if self.rebuild.record(batch):
            self.obs.add(LSH_REBUILDS)
            self.refresh_tables()

    def refresh_tables(self) -> int:
        """Re-insert the touched columns; return how many were re-hashed.

        With a drift threshold, only touched columns whose weights drifted
        past it are re-hashed (the rest would land in the same buckets
        anyway).  The touched set is cleared either way: a column's
        weights move only while it is touched, and its drift reference
        only when it is re-hashed, so a column left out stays below the
        threshold until it is touched again.
        """
        rehashed = 0
        with self._backend_scope():
            for i, touched in enumerate(self._touched):
                if not touched:
                    continue
                W = self.net.layers[i].W
                ids = np.fromiter(sorted(touched), dtype=np.int64, count=len(touched))
                touched.clear()
                if self._drift is not None:
                    ids = self._drift[i].drifted(W, ids)
                if ids.size:
                    self.indexes[i].update(ids, W[:, ids].T)
                    if self._drift is not None:
                        self._drift[i].mark_rehashed(W, ids)
                    rehashed += int(ids.size)
        if rehashed:
            self.rehashed_columns += rehashed
            self.obs.add(LSH_REHASHED_COLUMNS, rehashed)
        return rehashed

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Hash tables, rebuild counters and diagnostics.

        The hash *hyperplanes* are deterministic from the construction
        seed and are not serialised; the bucket contents are, because they
        are path-dependent (each column sits where it was hashed at its
        last re-hash, not where the current weights would place it).
        """
        meta = {
            "rebuild": self.rebuild.state_dict(),
            "active_count": self._active_count,
            "rehashed_columns": self.rehashed_columns,
            "indexes": [],
        }
        arrays: Dict[str, np.ndarray] = {"active_sum": self._active_sum.copy()}
        for i, index in enumerate(self.indexes):
            idx_meta, idx_arrays = index.state_dict()
            meta["indexes"].append(idx_meta)
            for name, arr in idx_arrays.items():
                arrays[f"index{i}.{name}"] = arr
            arrays[f"touched{i}"] = np.fromiter(
                sorted(self._touched[i]),
                dtype=np.int64,
                count=len(self._touched[i]),
            )
            if self._drift is not None:
                arrays[f"drift{i}"] = self._drift[i].reference
        return meta, arrays

    def restore_checkpoint_state(
        self, meta: dict, arrays: Dict[str, np.ndarray]
    ) -> None:
        idx_metas = meta["indexes"]
        if len(idx_metas) != len(self.indexes):
            raise ValueError(
                f"checkpoint holds {len(idx_metas)} hash indexes, "
                f"trainer has {len(self.indexes)}"
            )
        self.rebuild.load_state_dict(meta["rebuild"])
        self._active_count = int(meta["active_count"])
        self.rehashed_columns = int(meta["rehashed_columns"])
        self._active_sum = np.array(arrays["active_sum"], dtype=float)
        for i, index in enumerate(self.indexes):
            prefix = f"index{i}."
            idx_arrays = {
                name[len(prefix):]: arr
                for name, arr in arrays.items()
                if name.startswith(prefix)
            }
            index.load_state_dict(idx_metas[i], idx_arrays)
            self._touched[i] = {int(v) for v in arrays[f"touched{i}"]}
            if self._drift is not None:
                self._drift[i].restore_reference(arrays[f"drift{i}"])
