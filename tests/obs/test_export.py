"""Prometheus exposition + metrics/health endpoint tests.

``parse_prometheus`` doubles as the validity oracle: every rendering
test round-trips its output through the parser, and the CI metrics-smoke
job runs the same parser over a live scrape.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import InMemoryRecorder
from repro.obs.export import (
    MetricsServer,
    parse_prometheus,
    render_prometheus,
    sanitize_metric_name,
    write_exposition,
)
from repro.obs.histogram import Histogram


def _snapshot():
    rec = InMemoryRecorder()
    rec.add("serve.requests", 42)
    rec.gauge("serve.queue_depth", 3.0)
    rec.add_time("fit", 1.5)
    rec.series("serve.head.recall", 0, 0.9)
    rec.series("serve.head.recall", 1, 0.95)
    rec.histogram("serve.latency_s", 0.002)
    rec.histogram("serve.latency_s", 0.004)
    return rec.snapshot()


def _get(url):
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return resp.status, resp.read().decode("utf-8")


class TestSanitize:
    def test_dots_become_underscores_under_prefix(self):
        assert sanitize_metric_name("serve.latency_s") == "repro_serve_latency_s"

    def test_custom_prefix(self):
        assert sanitize_metric_name("a.b", prefix="x_") == "x_a_b"


class TestRenderPrometheus:
    def test_all_sections_render_and_parse(self):
        text = render_prometheus(_snapshot())
        samples = parse_prometheus(text)
        assert samples["repro_serve_requests_total"] == [("", 42.0)]
        assert samples["repro_serve_queue_depth"] == [("", 3.0)]
        assert samples["repro_fit_seconds_total"] == [("", 1.5)]
        assert samples["repro_fit_calls_total"] == [("", 1.0)]
        assert samples["repro_serve_head_recall_last"] == [("", 0.95)]
        assert samples["repro_serve_latency_s_count"] == [("", 2.0)]

    def test_histogram_family_is_cumulative_and_ends_at_inf(self):
        text = render_prometheus(_snapshot())
        buckets = parse_prometheus(text)["repro_serve_latency_s_bucket"]
        counts = [value for _, value in buckets]
        assert counts == sorted(counts)  # cumulative
        assert buckets[-1][0] == '{le="+Inf"}'
        assert buckets[-1][1] == 2.0
        # exactly one +Inf line per family
        assert sum('le="+Inf"' in labels for labels, _ in buckets) == 1

    def test_empty_snapshot_renders_valid_text(self):
        assert parse_prometheus(render_prometheus(None)) == {}
        assert parse_prometheus(render_prometheus({})) == {}

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not a metric line\n")
        with pytest.raises(ValueError):
            parse_prometheus("metric_name not_a_number\n")
        with pytest.raises(ValueError):
            parse_prometheus('m{bad label!="x"} 1\n')


class TestWriteExposition:
    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "metrics" / "sweep.prom"
        write_exposition(path, _snapshot())
        assert path.exists()
        assert not path.with_name(path.name + ".tmp").exists()
        samples = parse_prometheus(path.read_text(encoding="utf-8"))
        assert samples["repro_serve_requests_total"] == [("", 42.0)]

    def test_rewrite_replaces_contents(self, tmp_path):
        path = tmp_path / "sweep.prom"
        write_exposition(path, _snapshot())
        write_exposition(path, {"counters": {"only.this": 1}})
        samples = parse_prometheus(path.read_text(encoding="utf-8"))
        assert set(samples) == {"repro_only_this_total"}


class TestMetricsServer:
    def test_metrics_endpoint_serves_parseable_exposition(self):
        with MetricsServer(_snapshot, port=0) as server:
            status, body = _get(server.url + "/metrics")
        assert status == 200
        samples = parse_prometheus(body)
        assert samples["repro_serve_requests_total"] == [("", 42.0)]

    def test_metrics_json_roundtrips_the_snapshot(self):
        snapshot = _snapshot()
        with MetricsServer(lambda: snapshot, port=0) as server:
            status, body = _get(server.url + "/metrics.json")
        assert status == 200
        assert json.loads(body) == json.loads(json.dumps(snapshot))

    def test_healthz_always_200(self):
        with MetricsServer(dict, port=0) as server:
            status, body = _get(server.url + "/healthz")
        assert status == 200 and body == "ok\n"

    def test_readyz_reflects_ready_fn(self):
        ready = {"ok": True}
        with MetricsServer(
            dict,
            port=0,
            ready_fn=lambda: (ready["ok"], "ok" if ready["ok"] else "draining"),
        ) as server:
            status, body = _get(server.url + "/readyz")
            assert status == 200 and body == "ok\n"
            ready["ok"] = False
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(server.url + "/readyz")
            assert exc.value.code == 503
            assert exc.value.read().decode("utf-8") == "draining\n"

    def test_unknown_path_is_404(self):
        with MetricsServer(dict, port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(server.url + "/nope")
            assert exc.value.code == 404

    def test_snapshot_fn_called_per_scrape(self):
        rec = InMemoryRecorder()
        with MetricsServer(rec.snapshot, port=0) as server:
            _, before = _get(server.url + "/metrics")
            rec.add("live.counter", 7)
            _, after = _get(server.url + "/metrics")
        assert "repro_live_counter_total" not in parse_prometheus(before)
        assert parse_prometheus(after)["repro_live_counter_total"] == [("", 7.0)]

    def test_live_histogram_scrape(self):
        rec = InMemoryRecorder()
        hist = rec.get_histogram("serve.latency_s")
        assert isinstance(hist, Histogram)
        hist.record(0.003)
        with MetricsServer(rec.snapshot, port=0) as server:
            _, body = _get(server.url + "/metrics")
        assert parse_prometheus(body)["repro_serve_latency_s_count"] == [
            ("", 1.0)
        ]

    def test_close_mid_scrape_hangs_no_caller(self):
        """``close()`` while a scrape is blocked inside ``snapshot_fn``:
        close returns promptly, the in-flight scrape still completes, a
        later scrape fails at once, and the serving thread is gone."""
        entered, release = threading.Event(), threading.Event()

        def blocking_snapshot():
            entered.set()
            release.wait(timeout=10.0)
            return _snapshot()

        server = MetricsServer(blocking_snapshot, port=0)
        url = server.url + "/metrics"
        inflight = {}

        def scrape():
            try:
                inflight["status"], inflight["body"] = _get(url)
            except Exception as exc:  # recorded, asserted below
                inflight["error"] = exc

        client = threading.Thread(target=scrape, daemon=True)
        try:
            client.start()
            assert entered.wait(timeout=5.0)
            start = time.monotonic()
            server.close()
            assert time.monotonic() - start < 2.0  # one 0.5 s poll interval
            assert not any(
                t.name == "repro-metrics" for t in threading.enumerate()
            )
            start = time.monotonic()
            with pytest.raises(urllib.error.URLError):
                _get(url)
            assert time.monotonic() - start < 2.0
        finally:
            release.set()
            server.close()
        client.join(timeout=5.0)
        assert not client.is_alive()
        assert inflight.get("status") == 200, inflight.get("error")
        assert parse_prometheus(inflight["body"])["repro_serve_requests_total"]
