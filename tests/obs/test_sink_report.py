"""JSONL trace sink, executor-sink compatibility and report rendering."""

import json

import pytest

from repro.harness.executor import (
    ExperimentTask,
    JsonlSink,
    aggregate_traces,
)
from repro.harness.config import ExperimentConfig
from repro.obs import (
    AGGREGATE_KIND,
    InMemoryRecorder,
    derived_metrics,
    load_trace_file,
    render_counters,
    render_trace,
    trace_record,
    write_trace,
)
from repro.obs.counters import (
    FLOPS_ACTUAL,
    FLOPS_DENSE,
    LSH_CANDIDATES,
    LSH_QUERIES,
)


def _snapshot(**counters):
    return {"counters": counters, "gauges": {}, "timings": {}, "spans": {}}


class TestSink:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        record = trace_record(_snapshot(c=1), label="run-a", key="k1", extra=42)
        write_trace(path, record)
        loaded, corrupt = load_trace_file(path)
        assert loaded == [record]
        assert loaded[0]["extra"] == 42
        assert corrupt == 0

    def test_every_trace_kind_is_read(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        write_trace(path, trace_record(_snapshot(), label="t"))
        write_trace(path, trace_record(_snapshot(), kind=AGGREGATE_KIND))
        traces, _ = load_trace_file(path)
        assert [t["kind"] for t in traces] == ["trace", AGGREGATE_KIND]

    def test_skips_executor_outcomes_and_truncated_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        sink = JsonlSink(path)
        sink.append({"key": "task-1", "status": "ok", "result": None})
        write_trace(path, trace_record(_snapshot(c=3), label="t"))
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"kind": "trace", "snaps')  # crash mid-write
        traces, corrupt = load_trace_file(path)
        assert len(traces) == 1
        assert corrupt == 1
        assert traces[0]["snapshot"]["counters"] == {"c": 3}
        # and the executor side ignores the trace line symmetrically:
        assert set(sink.completed()) == {"task-1"}

    def test_missing_file_is_refused(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="trace file not found"):
            load_trace_file(tmp_path / "absent.jsonl")

    def test_directory_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read trace file"):
            load_trace_file(tmp_path)

    def test_unreadable_file_is_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "traces.jsonl"
        write_trace(path, trace_record(_snapshot(), label="t"))

        def denied(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr("repro.obs.sink.scan_jsonl", denied)
        with pytest.raises(ValueError, match="Permission denied"):
            load_trace_file(path)


class TestDerivedMetrics:
    def test_flop_and_lsh_ratios(self):
        snap = _snapshot(
            **{
                FLOPS_DENSE: 100,
                FLOPS_ACTUAL: 25,
                LSH_QUERIES: 10,
                LSH_CANDIDATES: 30,
            }
        )
        derived = derived_metrics(snap)
        assert derived["flops.skipped"] == 75
        assert derived["flops.skipped_frac"] == 0.75
        assert derived["lsh.candidates_per_query"] == 3.0

    def test_zero_denominators_are_omitted(self):
        assert derived_metrics(_snapshot()) == {}


class TestRendering:
    def test_render_counters_lists_names_and_descriptions(self):
        text = render_counters(_snapshot(**{FLOPS_DENSE: 10, FLOPS_ACTUAL: 4}))
        assert FLOPS_DENSE in text
        assert "flops.skipped" in text
        assert "GEMM FLOPs" in text

    def test_render_empty(self):
        assert "no counters" in render_counters(_snapshot())
        assert "no spans" in render_trace(_snapshot())

    def test_render_trace_includes_title_and_spans(self):
        rec = InMemoryRecorder()
        with rec.span("fit"):
            with rec.span("epoch"):
                pass
        rec.add(FLOPS_DENSE, 8)
        text = render_trace(rec.snapshot(), title="demo")
        assert text.startswith("demo\n====")
        assert "epoch" in text and FLOPS_DENSE in text


class TestExecutorIntegration:
    def test_traced_task_attaches_and_aggregates(self, tmp_path):
        cfg = ExperimentConfig(
            method="standard",
            dataset="mnist",
            data_scale=0.004,
            hidden_layers=1,
            hidden_width=16,
            epochs=1,
            batch_size=20,
            seed=0,
        )
        result = ExperimentTask(traced=True)(cfg, None)
        assert result.trace is not None
        assert result.trace["counters"][FLOPS_DENSE] > 0

        class Outcome:
            def __init__(self, result):
                self.result = result
                self.ok = result is not None

        merged = aggregate_traces([Outcome(result), Outcome(result)])
        assert (
            merged["counters"][FLOPS_DENSE]
            == 2 * result.trace["counters"][FLOPS_DENSE]
        )
        assert aggregate_traces([]) is None

    def test_result_roundtrips_trace_through_json(self):
        from repro.harness.results import result_from_dict, result_to_dict

        cfg = ExperimentConfig(
            method="standard",
            dataset="mnist",
            data_scale=0.004,
            hidden_layers=1,
            hidden_width=16,
            epochs=1,
            batch_size=20,
            seed=0,
        )
        result = ExperimentTask(traced=True)(cfg, None)
        payload = json.loads(json.dumps(result_to_dict(result)))
        restored = result_from_dict(payload)
        assert restored.trace == result.trace
