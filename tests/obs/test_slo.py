"""Declarative SLO specs, error-budget burn and the slo-check CLI gate."""

import json
import math

import pytest

from repro.cli import main
from repro.obs import InMemoryRecorder
from repro.obs.counters import SLO_BURN_PREFIX
from repro.obs.export import MetricsServer
from repro.obs.sink import trace_record, write_trace
from repro.obs.slo import (
    attach_burn_gauges,
    burn_gauges,
    evaluate_slos,
    load_slo_spec,
    render_slo_results,
)


def _spec_file(tmp_path, entries):
    path = tmp_path / "slo.json"
    path.write_text(json.dumps({"slos": entries}), encoding="utf-8")
    return path


def _snapshot():
    rec = InMemoryRecorder()
    rec.add("serve.requests", 1000)
    rec.add("serve.shed.queue_full", 5)
    rec.gauge("lsh.garbage_frac", 0.2)
    rec.series("serve.head.recall", 0, 0.8)
    rec.series("serve.head.recall", 1, 0.95)
    for _ in range(99):
        rec.histogram("serve.latency_s", 0.002)
    rec.histogram("serve.latency_s", 0.080)  # the p100 tail
    return rec.snapshot()


class TestLoadSpec:
    def test_valid_spec_loads(self, tmp_path):
        entries = load_slo_spec(
            _spec_file(
                tmp_path,
                [{"name": "p99", "histogram": "serve.latency_s",
                  "quantile": 0.99, "max": 1.0}],
            )
        )
        assert entries[0]["name"] == "p99"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_slo_spec(tmp_path / "absent.json")

    def test_directory_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read SLO spec"):
            load_slo_spec(tmp_path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_slo_spec(path)

    @pytest.mark.parametrize(
        "entry,match",
        [
            ({"gauge": "g", "max": 1}, "name"),
            ({"name": "x", "max": 1}, "exactly one source"),
            ({"name": "x", "gauge": "g", "counter": "c", "max": 1},
             "exactly one source"),
            ({"name": "x", "histogram": "h", "max": 1}, "quantile"),
            ({"name": "x", "ratio": "not-a-pair", "max": 1}, "ratio"),
            ({"name": "x", "gauge": "g"}, 'one of "max"/"min"'),
            ({"name": "x", "gauge": "g", "max": 1, "min": 0},
             'one of "max"/"min"'),
        ],
    )
    def test_invalid_entries_rejected(self, tmp_path, entry, match):
        with pytest.raises(ValueError, match=match):
            load_slo_spec(_spec_file(tmp_path, [entry]))

    def test_empty_spec_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"slos": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="at least one entry"):
            load_slo_spec(path)


class TestEvaluate:
    def test_max_bound_within_and_violated(self):
        results = evaluate_slos(
            _snapshot(),
            [
                {"name": "shed", "ratio": ["serve.shed.queue_full",
                                           "serve.requests"], "max": 0.01},
                {"name": "garbage", "gauge": "lsh.garbage_frac", "max": 0.1},
            ],
        )
        shed, garbage = results
        assert shed.ok and shed.burn == pytest.approx(0.5)
        assert not garbage.ok and garbage.burn == pytest.approx(2.0)

    def test_min_bound_uses_inverse_burn(self):
        (res,) = evaluate_slos(
            _snapshot(),
            [{"name": "recall", "series_last": "serve.head.recall",
              "min": 0.9}],
        )
        assert res.ok
        assert res.value == pytest.approx(0.95)
        assert res.burn == pytest.approx(0.9 / 0.95)

    def test_histogram_quantile_with_scale(self):
        (res,) = evaluate_slos(
            _snapshot(),
            [{"name": "p50_ms", "histogram": "serve.latency_s",
              "quantile": 0.5, "scale": 1000.0, "max": 10.0}],
        )
        assert res.ok
        assert res.value == pytest.approx(2.0, rel=0.15)  # one bucket width

    def test_absent_metric_fails_closed(self):
        (res,) = evaluate_slos(
            {}, [{"name": "ghost", "counter": "never.recorded", "max": 1}]
        )
        assert not res.ok
        assert math.isinf(res.burn)

    def test_absent_ok_passes_with_zero_burn(self):
        (res,) = evaluate_slos(
            {},
            [{"name": "ghost", "counter": "never.recorded", "max": 1,
              "absent_ok": True}],
        )
        assert res.ok and res.burn == 0.0

    def test_ratio_zero_over_zero_reads_as_zero(self):
        snapshot = {"counters": {"serve.requests": 0,
                                 "serve.shed.queue_full": 0}}
        (res,) = evaluate_slos(
            snapshot,
            [{"name": "shed", "ratio": ["serve.shed.queue_full",
                                        "serve.requests"], "max": 0.01}],
        )
        assert res.ok and res.value == 0.0


class TestBurnGauges:
    def test_gauge_names_use_the_prefix(self):
        results = evaluate_slos(
            _snapshot(), [{"name": "garbage", "gauge": "lsh.garbage_frac",
                           "max": 0.1}]
        )
        gauges = burn_gauges(results)
        assert gauges == {SLO_BURN_PREFIX + "garbage": pytest.approx(2.0)}

    def test_attach_clamps_infinite_burn(self):
        snapshot = attach_burn_gauges(
            {}, [{"name": "ghost", "counter": "never.recorded", "max": 1}]
        )
        assert snapshot["gauges"][SLO_BURN_PREFIX + "ghost"] == 1e9
        json.dumps(snapshot)  # stays JSON-safe

    def test_attach_does_not_mutate_the_input(self):
        original = _snapshot()
        gauges_before = dict(original["gauges"])
        attach_burn_gauges(
            original, [{"name": "g", "gauge": "lsh.garbage_frac", "max": 1}]
        )
        assert original["gauges"] == gauges_before


class TestRender:
    def test_violations_are_loud(self):
        results = evaluate_slos(
            _snapshot(), [{"name": "garbage", "gauge": "lsh.garbage_frac",
                           "max": 0.1}]
        )
        text = render_slo_results(results)
        assert "VIOLATED" in text
        assert "1 violated" in text

    def test_healthy_summary(self):
        results = evaluate_slos(
            _snapshot(), [{"name": "garbage", "gauge": "lsh.garbage_frac",
                           "max": 0.5}]
        )
        assert "all within budget" in render_slo_results(results)


class TestSloCheckCli:
    def _store(self, tmp_path):
        store = tmp_path / "trace.jsonl"
        write_trace(store, trace_record(_snapshot(), label="serve-test"))
        return store

    def test_exit_zero_when_within_budget(self, tmp_path, capsys):
        spec = _spec_file(
            tmp_path,
            [{"name": "shed", "ratio": ["serve.shed.queue_full",
                                        "serve.requests"], "max": 0.01}],
        )
        code = main(["slo-check", str(spec),
                     "--from-store", str(self._store(tmp_path))])
        assert code == 0
        assert "all within budget" in capsys.readouterr().out

    def test_exit_one_on_violation(self, tmp_path, capsys):
        spec = _spec_file(
            tmp_path,
            [{"name": "p99_ms", "histogram": "serve.latency_s",
              "quantile": 0.99, "scale": 1000.0, "max": 1e-9}],
        )
        code = main(["slo-check", str(spec),
                     "--from-store", str(self._store(tmp_path))])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_exit_two_on_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["slo-check", str(bad),
                     "--from-store", str(self._store(tmp_path))])
        assert code == 2

    def test_exit_two_on_missing_store(self, tmp_path):
        spec = _spec_file(
            tmp_path, [{"name": "x", "counter": "c", "max": 1}]
        )
        code = main(["slo-check", str(spec),
                     "--from-store", str(tmp_path / "absent.jsonl")])
        assert code == 2

    def test_url_mode_scrapes_a_live_exporter(self, tmp_path, capsys):
        spec = _spec_file(
            tmp_path,
            [{"name": "garbage", "gauge": "lsh.garbage_frac", "max": 0.5}],
        )
        with MetricsServer(_snapshot, port=0) as server:
            code = main(["slo-check", str(spec), "--url", server.url])
        assert code == 0
        assert "all within budget" in capsys.readouterr().out

    def test_url_mode_unreachable_exits_two(self, tmp_path):
        spec = _spec_file(
            tmp_path, [{"name": "x", "counter": "c", "max": 1}]
        )
        code = main(["slo-check", str(spec),
                     "--url", "http://127.0.0.1:1/"])
        assert code == 2
