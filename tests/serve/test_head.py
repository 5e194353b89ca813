"""ALSH top-k head: equivalence, recall golden, skipped-GEMM proof.

The acceptance tests for the serving head:

* whenever the true top-k all appear in the LSH candidate set, the
  head's answer is *exactly* brute force (property, many seeds);
* on the seeded bench-shape golden model the head reaches >= 0.95
  recall@10 with its serving defaults;
* the FLOP counters prove the full output GEMM never ran on the
  candidate path;
* at the serve shape, and on NaN, inf and undersized rows, the head
  answers exactly as a plain per-row scoring rule over the same
  candidate sets.
"""

import numpy as np
import pytest

from repro.backend import ComputeBackend, use_backend
from repro.backend.instrument import InstrumentedBackend
from repro.lsh.mips import exact_mips_batch
from repro.nn.network import MLP
from repro.obs import InMemoryRecorder
from repro.obs.counters import (
    SERVE_HEAD_CANDIDATES,
    SERVE_HEAD_FALLBACKS,
    SERVE_HEAD_QUERIES,
    gemm_flops,
)
from repro.obs.probes import ProbeManager
from repro.obs.timeseries import SERIES_SERVE_HEAD_RECALL, series_points
from repro.serve.head import ALSHTopKHead, HeadRecallProbe, head_recall


def _layer(n_in, n_out, seed):
    return MLP([n_in, n_out], seed=seed).layers[0]


def _per_row_topk(head, h, k):
    """Reference rule, one row at a time, on the live layer.

    Row ``i`` scores its candidate columns as ``h[i] @ W[:, cand] +
    b[cand]`` and keeps the top ``k`` by ``argpartition`` then
    ``argsort``; a row with fewer than ``k`` candidates scores every
    class instead (the exact fallback).
    """
    layer = head.layer
    ids = np.empty((h.shape[0], k), dtype=np.int64)
    logits = np.empty((h.shape[0], k))
    for i, cand in enumerate(head.candidates(h, record=False)):
        if cand.size < k:
            cand = np.arange(head.n_classes)
        scores = h[i] @ layer.W[:, cand] + layer.b[cand]
        top = np.argpartition(-scores, k - 1)[:k]
        order = np.argsort(-scores[top])
        ids[i] = cand[top[order]]
        logits[i] = scores[top[order]]
    return ids, logits


class TestEquivalenceProperty:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_when_topk_within_candidates(self, seed):
        """Head answer == brute force whenever candidates cover the truth."""
        rng = np.random.default_rng(seed)
        layer = _layer(10, 24, seed)
        head = ALSHTopKHead(layer, k=4, n_bits=3, n_tables=8, seed=seed)
        h = rng.normal(size=(16, 10))
        truth = exact_mips_batch(head._aug_cols, head._augment(h), 4)
        ids, logits = head.topk(h)
        exact_ids, exact_logits = head.exact_topk(h)
        covered = 0
        for i, cand in enumerate(head.candidates(h, record=False)):
            if not set(truth[i]).issubset(set(cand.tolist())):
                continue
            covered += 1
            np.testing.assert_array_equal(ids[i], exact_ids[i])
            np.testing.assert_allclose(logits[i], exact_logits[i], rtol=1e-12)
        assert covered > 0, "property never exercised — candidates too small"

    def test_exact_flag_matches_brute_force_bitwise(self):
        layer = _layer(8, 12, 0)
        head = ALSHTopKHead(layer, k=3, seed=0)
        h = np.random.default_rng(1).normal(size=(5, 8))
        ids, logits = head.topk(h, exact=True)
        exact_ids, exact_logits = head.exact_topk(h)
        np.testing.assert_array_equal(ids, exact_ids)
        np.testing.assert_array_equal(logits, exact_logits)

    def test_logits_are_bias_inclusive(self):
        """Ranking must use h·w + b, not the inner product alone."""
        layer = _layer(6, 10, 2)
        layer.b = np.linspace(-5.0, 5.0, 10)  # bias dominates the ranking
        head = ALSHTopKHead(layer, k=2, n_bits=2, n_tables=12, seed=0)
        h = np.random.default_rng(3).normal(size=(8, 6)) * 0.01
        ids, logits = head.topk(h, exact=True)
        expected = h @ layer.W + layer.b
        for i in range(8):
            np.testing.assert_allclose(
                logits[i], np.sort(expected[i])[::-1][:2], rtol=1e-12
            )
            assert ids[i, 0] == int(np.argmax(expected[i]))


class TestFallbacks:
    def test_small_candidate_sets_fall_back_to_exact(self):
        layer = _layer(6, 32, 1)
        # Many bits, one table: candidate sets are tiny, k is large.
        recorder = InMemoryRecorder()
        head = ALSHTopKHead(
            layer, k=16, n_bits=8, n_tables=1, seed=0, recorder=recorder
        )
        h = np.random.default_rng(4).normal(size=(6, 6))
        ids, logits = head.topk(h)
        exact_ids, exact_logits = head.exact_topk(h)
        fallbacks = recorder.get(SERVE_HEAD_FALLBACKS)
        assert fallbacks > 0, "tiny candidate sets must trigger fallback"
        np.testing.assert_array_equal(ids[:, 0], exact_ids[:, 0])

    def test_k_validation(self):
        head = ALSHTopKHead(_layer(4, 6, 0), k=2, seed=0)
        with pytest.raises(ValueError):
            head.topk(np.zeros((1, 4)), k=0)
        with pytest.raises(ValueError):
            head.topk(np.zeros((1, 4)), k=7)
        with pytest.raises(ValueError):
            ALSHTopKHead(_layer(4, 6, 0), k=0)
        with pytest.raises(ValueError):
            ALSHTopKHead(_layer(4, 6, 0), k=7)


class TestGoldenRecall:
    def test_recall_at_10_meets_acceptance_floor(self, golden_model):
        """>= 0.95 recall@10 on the seeded golden model, serving defaults."""
        head = ALSHTopKHead(golden_model.output_layer(), k=10, seed=0)
        rng = np.random.default_rng(7)
        queries = golden_model.trunk_forward(
            rng.normal(size=(128, golden_model.input_dim))
        )
        recall = head_recall(head, queries, 10)
        assert recall >= 0.95, f"golden recall@10 {recall:.3f} below 0.95"

    def test_recall_is_deterministic(self, golden_model):
        head = ALSHTopKHead(golden_model.output_layer(), k=10, seed=0)
        rng = np.random.default_rng(7)
        queries = golden_model.trunk_forward(
            rng.normal(size=(32, golden_model.input_dim))
        )
        assert head_recall(head, queries) == head_recall(head, queries)


class TestSkippedGEMM:
    def test_candidate_path_skips_full_output_gemm(self, golden_model):
        """FLOP counters prove the head never ran the output GEMM."""
        layer = golden_model.output_layer()
        head = ALSHTopKHead(layer, k=10, seed=0)
        rng = np.random.default_rng(11)
        h = golden_model.trunk_forward(
            rng.normal(size=(16, golden_model.input_dim))
        )
        recorder = InMemoryRecorder()
        backend = InstrumentedBackend(ComputeBackend(), recorder)
        with use_backend(backend):
            head.topk(h)
        counters = recorder.snapshot()["counters"]
        assert "kernel.flops.matmul_add_bias" not in counters, (
            "the full output GEMM ran on the candidate path"
        )
        # One product per row over that row's own candidates: scoring the
        # union of the batch's candidate sets would cost more.
        scored = sum(c.size for c in head.candidates(h, record=False))
        assert counters["kernel.flops.matmul_cols"] == gemm_flops(
            1, layer.W.shape[0], scored
        )
        full_gemm = gemm_flops(h.shape[0], layer.W.shape[0], layer.W.shape[1])
        assert counters["kernel.flops.matmul_cols"] < full_gemm

    def test_candidate_counters_recorded(self):
        recorder = InMemoryRecorder()
        head = ALSHTopKHead(_layer(8, 16, 0), k=2, seed=0, recorder=recorder)
        h = np.random.default_rng(5).normal(size=(6, 8))
        head.topk(h)
        assert recorder.get(SERVE_HEAD_QUERIES) == 6
        assert recorder.get(SERVE_HEAD_CANDIDATES) > 0

    def test_exact_path_does_run_the_gemm(self):
        layer = _layer(8, 16, 0)
        head = ALSHTopKHead(layer, k=2, seed=0)
        recorder = InMemoryRecorder()
        backend = InstrumentedBackend(ComputeBackend(), recorder)
        with use_backend(backend):
            head.topk(np.random.default_rng(6).normal(size=(4, 8)), exact=True)
        counters = recorder.snapshot()["counters"]
        assert counters["kernel.flops.matmul_add_bias"] == gemm_flops(4, 8, 16)


class TestPerRowReference:
    @pytest.mark.parametrize("rows", [1, 7, 32])
    def test_serve_shape_matches_per_row_rule(self, golden_model, rows):
        head = ALSHTopKHead(golden_model.output_layer(), k=10, seed=0)
        rng = np.random.default_rng(rows)
        h = golden_model.trunk_forward(
            rng.normal(size=(rows, golden_model.input_dim))
        )
        ids, logits = head.topk(h)
        ref_ids, ref_logits = _per_row_topk(head, h, 10)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_allclose(logits, ref_logits, rtol=1e-12)


class TestAdversarialRows:
    def test_nan_inf_and_undersized_rows_in_one_batch(self, golden_model):
        """Each row answers as the per-row rule would, NaN logits included.

        Two tables of 64 buckets: the bucket NaN queries hash to holds
        more than k classes, while some trunk rows get fewer than k.  The
        ordinary row has the most candidates, so a selection padded to
        the batch's widest row would pad the NaN row.
        """
        k = 10
        head = ALSHTopKHead(
            golden_model.output_layer(), k=k, n_bits=6, n_tables=2, seed=9
        )
        pool = golden_model.trunk_forward(
            np.random.default_rng(13).normal(size=(32, golden_model.input_dim))
        )
        sizes = np.array([c.size for c in head.candidates(pool, record=False)])
        ordinary = pool[np.argmax(sizes)]
        undersized = pool[np.argmax(sizes < k)]
        inf_row = ordinary.copy()
        inf_row[0] = np.inf
        h = np.vstack([np.full_like(ordinary, np.nan), inf_row, ordinary, undersized])
        with np.errstate(invalid="ignore"):
            sizes = [c.size for c in head.candidates(h, record=False)]
            ids, logits = head.topk(h)
            ref_ids, ref_logits = _per_row_topk(head, h, k)
        assert sizes[2] > sizes[0] >= k > sizes[3], sizes
        assert sizes[1] >= k, sizes
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_allclose(logits, ref_logits, rtol=1e-12)
        assert np.isnan(logits[0]).all()
        assert np.isposinf(logits[1]).all()
        assert all(np.unique(row).size == k for row in ids)

    @pytest.mark.parametrize("exact", [False, True])
    def test_empty_batch(self, golden_model, exact):
        head = ALSHTopKHead(golden_model.output_layer(), k=10, seed=0)
        ids, logits = head.topk(np.empty((0, head.layer.n_in)), exact=exact)
        assert ids.shape == logits.shape == (0, 10)


class TestHeadRecallProbe:
    class _FakeServer:
        def __init__(self, head, recorder):
            self.head = head
            self.obs = recorder

    def test_probe_measures_recall_on_cadence(self, small_model):
        recorder = InMemoryRecorder()
        head = ALSHTopKHead(small_model.output_layer(), k=3, seed=0)
        server = self._FakeServer(head, recorder)
        probes = ProbeManager(
            probes=[HeadRecallProbe()], probe_every=2, budget=None, seed=0
        )
        x = np.random.default_rng(8).normal(size=(4, small_model.input_dim))
        trunk = small_model.trunk_forward(x)
        assert not probes.probes[0].supports(server)  # no queries yet
        for _ in range(4):
            head.topk(trunk)
            probes.on_batch(server, trunk, None)
        steps, values = series_points(
            recorder.snapshot(), SERIES_SERVE_HEAD_RECALL
        )
        assert len(values) == 2  # cadence 2, four batches
        assert all(0.0 <= v <= 1.0 for v in values)
