"""ALSH top-k serving head: answer "top-k classes" without the output GEMM.

At inference the output-layer product ``h @ W + b`` dominates the paper
shape (hidden width 1000 into a wide class/prototype layer), yet a
classification answer only needs the *largest* few logits.  That is
maximum inner-product search — the same problem the training-side
ALSH-approx trainer solves for active-node selection — so the head
builds a :class:`~repro.lsh.mips.MIPSIndex` over the output layer's
weight columns once at model-load time and, per query, scores only the
LSH candidate columns (``backend.matmul_cols``) instead of all of them.

The bias is folded into the index by augmenting each column with its
bias entry and each query with a trailing 1, so candidate ranking uses
the true logits ``h·w_j + b_j``, not just the inner products.

Candidates are scored from that augmented snapshot, taken at
construction, not from the live layer: it holds one contiguous
``(w_j, b_j)`` row per class, so handing ``matmul_cols`` its class-major
view gathers a row's candidates as whole rows rather than strided
columns of the row-major ``layer.W``.  The kernel and its FLOPs are
unchanged; only the gather gets cheaper.

Guarantees and escape hatches:

* ``exact=True`` (or a candidate set smaller than ``k``) falls back to
  the full GEMM over the live layer — always correct, never fast.
* Whenever the true top-k all appear in the candidate set, the head's
  answer equals brute-force MIPS exactly (property-tested).
* Recall@k against :func:`~repro.lsh.mips.exact_mips_batch` is measured
  by :class:`HeadRecallProbe` riding the standard
  :class:`~repro.obs.probes.ProbeManager` cadence machinery.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from ..backend import active_backend
from ..lsh.mips import MIPSIndex, exact_mips_batch
from ..obs import NULL_RECORDER, Recorder
from ..obs.counters import (
    HIST_SERVE_HEAD_SECONDS,
    SERVE_HEAD_CANDIDATES,
    SERVE_HEAD_FALLBACKS,
    SERVE_HEAD_QUERIES,
)
from ..obs.probes import PROBE_POINTS, Probe
from ..obs.timeseries import SERIES_SERVE_HEAD_RECALL

__all__ = ["ALSHTopKHead", "HeadRecallProbe", "head_recall"]


class ALSHTopKHead:
    """Top-k over a frozen output layer via candidate-only scoring.

    Parameters
    ----------
    layer:
        The output :class:`~repro.nn.layers.DenseLayer` (``W`` is
        ``n_hidden x n_classes``).  Its weights must not change after
        the index is built — the registry freezes them.
    k:
        Default answer size.
    n_bits, n_tables, seed:
        LSH shape; serving defaults trade a little more probing
        (fewer bits, more tables) for recall on unit-scale trunks.
        SRP discrimination degrades as the trunk widens (random angles
        concentrate near 90°), so serve wide-prototype layers behind a
        narrow embedding layer — the bench shape.
    family, m, scale:
        Hash family and asymmetric-transform knobs forwarded to
        :class:`~repro.lsh.mips.MIPSIndex`.
    recorder:
        Observability sink for query/candidate/fallback counters.
    """

    def __init__(
        self,
        layer,
        k: int = 10,
        n_bits: int = 4,
        n_tables: int = 16,
        seed: Optional[int] = 0,
        family: str = "srp",
        m: int = 3,
        scale: float = 0.83,
        recorder: Recorder = NULL_RECORDER,
    ):
        if not 1 <= k <= layer.n_out:
            raise ValueError(
                f"k must be in [1, {layer.n_out}] (the output layer's "
                f"classes), got {k}"
            )
        self.layer = layer
        self.k = int(k)
        self.n_classes = int(layer.n_out)
        self.obs = recorder
        # Augmented collection: column j becomes (w_j, b_j) so the MIPS
        # scores are the true logits once queries append a trailing 1.
        self._aug_cols = np.ascontiguousarray(
            np.vstack([layer.W, layer.b[None, :]]).T
        )
        self.index = MIPSIndex(
            dim=self._aug_cols.shape[1],
            n_bits=n_bits,
            n_tables=n_tables,
            m=m,
            scale=scale,
            family=family,
            seed=seed,
        )
        self.index.build(self._aug_cols)
        self._last_queries: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _augment(self, h: np.ndarray) -> np.ndarray:
        h = np.atleast_2d(np.asarray(h, dtype=float))
        return np.concatenate([h, np.ones((h.shape[0], 1))], axis=1)

    def exact_topk(
        self, h: np.ndarray, k: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Brute-force ``(ids, logits)`` via the full output GEMM."""
        k = self.k if k is None else int(k)
        h = np.atleast_2d(np.asarray(h, dtype=float))
        logits = active_backend().matmul_add_bias(h, self.layer.W, self.layer.b)
        top = np.argpartition(-logits, k - 1, axis=1)[:, :k]
        order = np.argsort(-np.take_along_axis(logits, top, axis=1), axis=1)
        ids = np.take_along_axis(top, order, axis=1)
        return ids, np.take_along_axis(logits, ids, axis=1)

    def candidates(self, h: np.ndarray, record: bool = True):
        """Raw LSH candidate sets for a trunk batch (sorted ids per row)."""
        return self.index.query_batch(self._augment(h), record=record)

    def topk(
        self,
        h: np.ndarray,
        k: Optional[int] = None,
        exact: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Top-k class ids and logits for a batch of trunk activations.

        Returns ``(ids, logits)``, both ``(m, k)``, ids sorted by
        descending logit.  ``exact=True`` is the escape hatch: full
        GEMM, no index involved.  Rows whose candidate set is smaller
        than ``k`` silently fall back to the exact path (counted under
        ``serve.head.exact_fallbacks``).
        """
        k = self.k if k is None else int(k)
        if not 1 <= k <= self.n_classes:
            raise ValueError(f"k must be in [1, {self.n_classes}], got {k}")
        h = np.atleast_2d(np.asarray(h, dtype=float))
        self._last_queries = h
        if exact:
            return self.exact_topk(h, k)
        if self.obs.enabled:
            start = time.perf_counter()
            out = self._approx_topk(h, k)
            dt = time.perf_counter() - start
            self.obs.add_time("serve.head.topk", dt)
            self.obs.histogram(HIST_SERVE_HEAD_SECONDS, dt)
            return out
        return self._approx_topk(h, k)

    def _approx_topk(
        self, h: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        backend = active_backend()
        # Class-major view of the snapshot: a candidate gather copies
        # contiguous class rows, not strided columns of layer.W.
        w = self._aug_cols[:, :-1].T
        b = self._aug_cols[:, -1]
        candidate_sets = self.candidates(h)
        m = h.shape[0]
        ids = np.empty((m, k), dtype=np.int64)
        logits = np.empty((m, k))
        self.obs.add(SERVE_HEAD_QUERIES, m)
        exact_rows = []
        for i, cand in enumerate(candidate_sets):
            if cand.size < k:
                exact_rows.append(i)
                continue
            self.obs.add(SERVE_HEAD_CANDIDATES, int(cand.size))
            # Score only the candidate columns: O(n_hidden * |cand|)
            # instead of the full O(n_hidden * n_classes) GEMM row.
            scores = backend.matmul_cols(h[i : i + 1], w, b, cand)[0]
            top = np.argpartition(-scores, k - 1)[:k]
            order = np.argsort(-scores[top])
            ids[i] = cand[top[order]]
            logits[i] = scores[top[order]]
        if exact_rows:
            self.obs.add(SERVE_HEAD_FALLBACKS, len(exact_rows))
            rows = np.asarray(exact_rows)
            e_ids, e_logits = self.exact_topk(h[rows], k)
            ids[rows] = e_ids
            logits[rows] = e_logits
        return ids, logits


def head_recall(
    head: ALSHTopKHead, queries: np.ndarray, k: Optional[int] = None
) -> float:
    """Mean recall@k of the head against brute-force MIPS on ``queries``.

    Uses the counters-off candidate path, so measuring recall never
    inflates the head's work counters.
    """
    k = head.k if k is None else int(k)
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    truth = exact_mips_batch(head._aug_cols, head._augment(queries), k)
    hits = 0
    for q_true, cand in zip(truth, head.candidates(queries, record=False)):
        hits += np.intersect1d(q_true, cand).size
    return hits / float(truth.size)


class HeadRecallProbe(Probe):
    """Recall@k of the serving head, recorded on the probe cadence.

    Duck-types its "trainer" as anything with an ``obs`` recorder and a
    ``head`` whose last query batch is retained — the
    :class:`~repro.serve.server.InferenceServer` qualifies, so the
    standard :class:`~repro.obs.probes.ProbeManager` cadence/budget
    machinery drives serving-quality measurement unchanged.
    """

    name = "head_recall"

    def __init__(self, max_queries: int = 8):
        if max_queries < 1:
            raise ValueError(f"max_queries must be at least 1, got {max_queries}")
        self.max_queries = int(max_queries)

    def supports(self, trainer) -> bool:
        head = getattr(trainer, "head", None)
        return head is not None and getattr(head, "_last_queries", None) is not None

    def run(self, trainer, step, x, y, rng, recorder) -> None:
        head: ALSHTopKHead = trainer.head
        queries = head._last_queries[: self.max_queries]
        recorder.series(
            SERIES_SERVE_HEAD_RECALL, step, head_recall(head, queries)
        )
        recorder.add(PROBE_POINTS)
