"""Serving telemetry: bounded latency memory and bitwise no-op proof.

Two acceptance criteria from the live-telemetry work land here:

* the server's latency accounting is O(buckets) — a ≥10k-request load
  leaves the same fixed bucket array a 10-request load does, while
  ``stats()`` keeps its public keys and a documented error bound;
* attaching the full telemetry stack (recorder + request tracer +
  /metrics exporter scraping mid-flight) cannot change a single bit of
  any answer.
"""

import urllib.request

import numpy as np
import pytest

from repro.backend import get_backend
from repro.obs import NULL_RECORDER, InMemoryRecorder, RequestTracer
from repro.obs.counters import HIST_SERVE_LATENCY, HIST_SERVE_QUEUE_WAIT
from repro.obs.export import MetricsServer, parse_prometheus
from repro.obs.histogram import DEFAULT_BUCKETS
from repro.obs.tracectx import NULL_TRACER
from repro.serve import ServerOverloaded
from repro.serve.server import InferenceServer, run_smoke


def _drive(server, xs, chunk=64):
    """Submit every row through the synchronous run_once dispatch path."""
    def drain(pending):
        while server.run_once(force=True):
            pass
        results.extend(req.result(5.0) for req in pending)
        pending.clear()

    results = []
    pending = []
    for row in xs:
        pending.append(server.submit(row))
        if len(pending) >= chunk:
            drain(pending)
    drain(pending)
    return results


class TestBoundedLatencyMemory:
    def test_10k_requests_leave_o_buckets_state(self, small_model):
        """Regression for the unbounded `latencies` list: serving 10k
        requests must not grow per-request state anywhere."""
        n = 10_500
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(n, small_model.input_dim))
        recorder = InMemoryRecorder()
        server = InferenceServer(
            small_model, max_batch=64, max_wait=0.0, max_queue=n + 1,
            recorder=recorder, start_worker=False,
        )
        _drive(server, xs)
        latency = server.batcher.latency
        assert latency.count == n
        # the whole latency state is one fixed-size bucket array
        assert len(latency.counts) == DEFAULT_BUCKETS + 2
        assert not hasattr(server.batcher, "latencies")
        # the recorder's copy is the same bounded object, not a second
        # accounting of 10k samples
        assert recorder.get_histogram(HIST_SERVE_LATENCY) is latency
        assert len(
            recorder.snapshot()["histograms"][HIST_SERVE_LATENCY]["counts"]
        ) <= DEFAULT_BUCKETS + 2
        server.close()

    def test_stats_keys_and_error_bound_documented(self, small_model):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(128, small_model.input_dim))
        server = InferenceServer(
            small_model, max_batch=32, max_wait=0.0, max_queue=256,
            start_worker=False,
        )
        _drive(server, xs)
        stats = server.stats()
        # public surface unchanged by the histogram rewrite
        assert set(stats) == {
            "served", "queue_depth", "latency_p50", "latency_p99"
        }
        assert stats["served"] == 128
        assert stats["queue_depth"] == 0
        # estimates are clamped into the observed range, so they are
        # real latencies (positive, p50 <= p99 up to one bucket width)
        assert 0 < stats["latency_p50"] <= stats["latency_p99"] * 1.149
        assert "error" in InferenceServer.stats.__doc__  # documented bound
        server.close()


class TestReadiness:
    def test_not_ready_at_the_shed_threshold(self, small_model):
        """``ready()``, the ``/readyz`` check of ``serve`` and the serve
        smoke, turns false at the queue depth where ``submit`` sheds."""
        server = InferenceServer(small_model, max_queue=2, start_worker=False)
        x = np.zeros(small_model.input_dim)
        for _ in range(2):
            assert server.ready() == (True, "ok")
            server.submit(x)
        assert server.ready() == (False, "queue at shed threshold")
        with pytest.raises(ServerOverloaded):
            server.submit(x)
        server.run_once(force=True)
        assert server.ready() == (True, "ok")
        server.close()


class TestTelemetryIsBitwiseNoOp:
    def test_answers_identical_with_full_telemetry_attached(self, small_model):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(96, small_model.input_dim))

        def serve(recorder, tracer, scrape=False):
            server = InferenceServer(
                small_model, max_batch=16, max_wait=0.0, max_queue=256,
                pad_batches=True, backend=get_backend("reference"),
                recorder=recorder, tracer=tracer, start_worker=False,
            )
            metrics = None
            if scrape:
                metrics = MetricsServer(recorder.snapshot, port=0)
            out = _drive(server, xs, chunk=16)
            if metrics is not None:
                with urllib.request.urlopen(
                    metrics.url + "/metrics", timeout=5.0
                ) as resp:
                    parse_prometheus(resp.read().decode("utf-8"))
                metrics.close()
            server.close()
            return out

        bare = serve(NULL_RECORDER, NULL_TRACER)
        traced = serve(InMemoryRecorder(), RequestTracer(), scrape=True)
        assert len(bare) == len(traced)
        for a, b in zip(bare, traced):
            np.testing.assert_array_equal(a, b)


class TestSmokeWithTelemetry:
    def test_run_smoke_scrapes_and_stores(self, tmp_path, capsys):
        store = tmp_path / "serve.jsonl"
        assert run_smoke(
            requests=120, seed=0, metrics_port=0, store=store
        ) == 0
        out = capsys.readouterr().out
        assert "metrics: scraped" in out
        assert "healthz 200" in out
        from repro.obs.sink import read_traces, scan_jsonl
        from repro.obs.tracectx import read_trace_events

        assert len(read_traces(store)) >= 1  # the snapshot record
        records, corrupt = scan_jsonl(store)
        assert corrupt == 0
        events = read_trace_events(records)
        assert any(e.get("event") == "completed" for e in events)

    def test_smoke_record_carries_elapsed_and_qps(self, tmp_path):
        from repro.obs.monitor import summarize_record
        from repro.obs.sink import read_traces

        store = tmp_path / "serve.jsonl"
        assert run_smoke(requests=120, seed=0, verbose=False, store=store) == 0
        (record,) = read_traces(store)
        assert record["label"] == "serve-smoke"
        assert record["elapsed"] > 0
        assert "qps=" in summarize_record(record)

    def test_smoke_scrape_sees_the_slo_burn_gauges(self, monkeypatch, capsys):
        from repro.serve import server

        slo = [{"name": "p99_latency_ms", "histogram": "serve.latency_s",
                "quantile": 0.99, "scale": 1000.0, "max": 1000.0}]
        assert run_smoke(requests=120, seed=0, metrics_port=0, slo=slo) == 0
        # Without the burn gauges on /metrics the smoke's scrape fails.
        monkeypatch.setattr(
            server, "attach_burn_gauges", lambda snapshot, entries: snapshot
        )
        assert run_smoke(requests=120, seed=0, metrics_port=0, slo=slo) == 1
        assert "FAIL: /metrics must expose the SLO burn gauges" in (
            capsys.readouterr().out
        )

    def test_queue_wait_histogram_populated(self, small_model):
        recorder = InMemoryRecorder()
        server = InferenceServer(
            small_model, max_batch=8, max_wait=0.0, max_queue=64,
            recorder=recorder, start_worker=False,
        )
        rng = np.random.default_rng(3)
        _drive(server, rng.normal(size=(32, small_model.input_dim)), chunk=8)
        snap = recorder.snapshot()["histograms"]
        assert snap[HIST_SERVE_QUEUE_WAIT]["count"] == 32
        server.close()
