"""End-to-end server tests: bitwise batching, smoke loads, catalogues.

The headline guarantee: with ``pad_batches=True`` on the reference
backend, answers from concurrently-formed micro-batches are **bitwise
identical** to one-at-a-time serving — batch composition cannot change
a single bit of anyone's answer.
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.obs import InMemoryRecorder, is_catalogued_series
from repro.obs.counters import COUNTER_CATALOG, GAUGE_CATALOG
from repro.serve.head import ALSHTopKHead
from repro.serve.server import InferenceServer, _fire, run_smoke, seeded_servable


class TestBitwiseBatching:
    def test_batched_equals_one_at_a_time_bitwise(self, small_model):
        """Concurrent micro-batched answers == unbatched padded forwards."""
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(48, small_model.input_dim))
        with InferenceServer(
            small_model,
            max_batch=8,
            max_wait=0.002,
            max_queue=256,
            pad_batches=True,
            backend=get_backend("reference"),
        ) as server:
            requests = [server.submit(x) for x in xs]
            results = [r.result(10.0) for r in requests]
        for i, x in enumerate(xs):
            solo = small_model.predict_logproba(x[None, :], pad_to=8)[0]
            np.testing.assert_array_equal(results[i], solo)

    def test_batch_composition_cannot_change_bits(self, small_model):
        """The same row served in two different mixes answers identically."""
        rng = np.random.default_rng(1)
        probe = rng.normal(size=(small_model.input_dim,))
        answers = []
        for filler_seed in (2, 3):
            filler = np.random.default_rng(filler_seed).normal(
                size=(7, small_model.input_dim)
            )
            with InferenceServer(
                small_model, max_batch=8, max_wait=0.002,
                pad_batches=True, backend=get_backend("reference"),
            ) as server:
                requests = [server.submit(probe)]
                requests += [server.submit(row) for row in filler]
                answers.append(requests[0].result(10.0))
        np.testing.assert_array_equal(answers[0], answers[1])


class TestSmokeLoads:
    def test_nominal_load_sheds_nothing(self, small_model):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(200, small_model.input_dim))
        recorder = InMemoryRecorder()
        with InferenceServer(
            small_model, max_batch=16, max_wait=0.001,
            max_queue=1024, recorder=recorder,
        ) as server:
            outcome = _fire(server, xs)
        assert outcome == {"ok": 200, "shed": 0, "failed": 0}
        stats = server.stats()
        assert stats["served"] == 200
        assert stats["latency_p50"] <= stats["latency_p99"]

    def test_run_smoke_passes(self, capsys):
        assert run_smoke(requests=200, seed=0, verbose=False) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out


class TestTopKMode:
    def test_topk_answers_match_direct_head(self, small_model):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(12, small_model.input_dim))
        with InferenceServer(
            small_model, mode="topk", k=3, max_batch=12, max_wait=0.002,
        ) as server:
            results = [server.submit(x).result(10.0) for x in xs]
        head = ALSHTopKHead(small_model.output_layer(), k=3, seed=0)
        trunk = small_model.trunk_forward(xs)
        for i, (ids, logits) in enumerate(results):
            assert ids.shape == (3,) and logits.shape == (3,)
            exact_ids, exact_logits = head.exact_topk(trunk[i : i + 1], 3)
            cand = head.candidates(trunk[i : i + 1], record=False)[0]
            if set(exact_ids[0].tolist()).issubset(set(cand.tolist())):
                np.testing.assert_array_equal(ids, exact_ids[0])

    def test_exact_topk_mode(self, small_model):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(small_model.input_dim,))
        with InferenceServer(
            small_model, mode="topk", k=2, exact=True, max_batch=4,
        ) as server:
            ids, logits = server.predict(x)
        head = ALSHTopKHead(small_model.output_layer(), k=2, seed=0)
        exact_ids, exact_logits = head.exact_topk(
            small_model.trunk_forward(x[None, :]), 2
        )
        np.testing.assert_array_equal(ids, exact_ids[0])
        np.testing.assert_allclose(logits, exact_logits[0], rtol=1e-12)

    def test_mode_validation(self, small_model):
        with pytest.raises(ValueError, match="unknown serve mode"):
            InferenceServer(small_model, mode="streaming")

    @pytest.mark.parametrize("k", [0, 9])
    def test_k_beyond_a_prebuilt_head_is_refused(self, small_model, k):
        """A given head is checked like a built one, before any request."""
        head = ALSHTopKHead(small_model.output_layer(), k=2, seed=0)
        with pytest.raises(ValueError, match=r"k must be in \[1, 8\]"):
            InferenceServer(
                small_model, mode="topk", k=k, head=head, start_worker=False
            )


class TestServeCatalogueCoverage:
    def test_everything_served_is_catalogued(self, small_model):
        """Satellite guarantee: serve.* telemetry is fully documented."""
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(64, small_model.input_dim))
        recorder = InMemoryRecorder()
        with InferenceServer(
            small_model, mode="topk", k=3, max_batch=8, max_wait=0.001,
            recorder=recorder, probe_every=2,
        ) as server:
            _fire(server, xs)
        snapshot = recorder.snapshot()
        emitted_counters = set(snapshot["counters"])
        assert any(c.startswith("serve.") for c in emitted_counters)
        missing = sorted(emitted_counters - set(COUNTER_CATALOG))
        assert not missing, f"uncatalogued serve counters: {missing}"
        missing_gauges = sorted(
            set(snapshot["gauges"]) - set(GAUGE_CATALOG)
        )
        assert not missing_gauges, f"uncatalogued gauges: {missing_gauges}"
        missing_series = sorted(
            s for s in snapshot["series"] if not is_catalogued_series(s)
        )
        assert not missing_series, f"uncatalogued series: {missing_series}"

    def test_recall_probe_rides_the_server(self, small_model):
        from repro.obs.timeseries import SERIES_SERVE_HEAD_RECALL, series_points

        rng = np.random.default_rng(6)
        xs = rng.normal(size=(64, small_model.input_dim))
        recorder = InMemoryRecorder()
        with InferenceServer(
            small_model, mode="topk", k=3, max_batch=8, max_wait=0.001,
            recorder=recorder, probe_every=2,
        ) as server:
            _fire(server, xs)
        _, values = series_points(recorder.snapshot(), SERIES_SERVE_HEAD_RECALL)
        assert values, "probe_every must land recall points in the trace"
        assert all(0.0 <= v <= 1.0 for v in values)


class TestSeededServable:
    def test_embed_inserts_bottleneck(self):
        model = seeded_servable(
            input_dim=10, hidden=20, depth=2, classes=6, embed=4, seed=0
        )
        assert model.model.layer_sizes == [10, 20, 20, 4, 6]
        assert model.output_layer().W.shape == (4, 6)

    def test_default_has_no_bottleneck(self):
        model = seeded_servable(input_dim=10, hidden=20, depth=1, classes=6)
        assert model.model.layer_sizes == [10, 20, 6]
