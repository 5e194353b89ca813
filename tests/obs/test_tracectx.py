"""Request tracing: id minting, event buffers, stores and timelines."""

import itertools
import threading

import pytest

from repro.cli import main
from repro.obs import RequestTracer
from repro.obs.sink import load_trace_file, scan_jsonl, trace_record, write_trace
from repro.obs.tracectx import (
    NULL_TRACER,
    REQUEST_TRACE_KIND,
    read_trace_events,
    reconstruct_request,
    render_request_timeline,
)


class TestMinting:
    def test_ids_are_sequential_and_prefixed(self):
        tracer = RequestTracer()
        assert tracer.mint() == "r000001"
        assert tracer.mint() == "r000002"
        assert tracer.mint_batch() == "b000001"

    def test_custom_prefix_for_multiprocess(self):
        tracer = RequestTracer(id_prefix="w3-")
        assert tracer.mint() == "w3-000001"

    def test_threaded_minting_never_collides(self):
        tracer = RequestTracer()
        minted = []
        def worker():
            minted.extend(tracer.mint() for _ in range(500))
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(minted) == 4000
        assert len(set(minted)) == 4000


class TestEventBuffer:
    def test_events_buffer_without_a_sink(self):
        tracer = RequestTracer(clock=itertools.count().__next__)
        rid = tracer.mint()
        tracer.event(rid, "enqueued")
        tracer.event(rid, "completed", batch="b000001")
        assert [e["event"] for e in tracer.events] == ["enqueued", "completed"]
        assert tracer.events[1]["batch"] == "b000001"

    def test_sinkless_buffer_is_bounded(self):
        tracer = RequestTracer(max_buffer=100)
        for i in range(301):
            tracer.event(f"r{i:06d}", "enqueued", t=float(i))
        # the oldest half is dropped whenever the bound is exceeded
        assert len(tracer.events) <= 101
        assert tracer.events[-1]["request"] == "r000300"

    def test_extra_fields_ride_the_event(self):
        tracer = RequestTracer()
        tracer.event(None, "forward", batch="b1", seconds=0.25)
        assert tracer.events[0]["seconds"] == 0.25
        assert tracer.events[0]["request"] is None

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.mint() is None
        assert NULL_TRACER.mint_batch() is None
        NULL_TRACER.event("r1", "enqueued")
        NULL_TRACER.flush()
        assert NULL_TRACER.events == []


class TestSinkFlush:
    def test_flush_writes_request_trace_records(self, tmp_path):
        store = tmp_path / "trace.jsonl"
        tracer = RequestTracer(sink=store)
        rid = tracer.mint()
        tracer.event(rid, "enqueued", t=0.0)
        tracer.event(rid, "completed", t=1.0)
        tracer.flush()
        records, corrupt = scan_jsonl(store)
        assert corrupt == 0
        assert records[0]["kind"] == REQUEST_TRACE_KIND
        assert len(records[0]["events"]) == 2

    def test_auto_flush_at_flush_every(self, tmp_path):
        store = tmp_path / "trace.jsonl"
        tracer = RequestTracer(sink=store, flush_every=10)
        for i in range(25):
            tracer.event(f"r{i:06d}", "enqueued", t=float(i))
        records, _ = scan_jsonl(store)
        assert sum(len(r["events"]) for r in records) >= 20
        tracer.close()
        records, _ = scan_jsonl(store)
        assert sum(len(r["events"]) for r in records) == 25

    def test_trace_records_invisible_to_snapshot_readers(self, tmp_path):
        """load_trace_file skips request_trace records (no snapshot key)."""
        store = tmp_path / "trace.jsonl"
        tracer = RequestTracer(sink=store)
        tracer.event("r000001", "enqueued", t=0.0)
        tracer.flush()
        write_trace(store, trace_record({"counters": {}}, label="run"))
        traces, _ = load_trace_file(store)
        assert len(traces) == 1


def _events():
    return [
        {"request": "r000001", "event": "enqueued", "t": 1.0},
        {"request": "r000002", "event": "enqueued", "t": 1.1},
        {"request": "r000001", "event": "dispatched", "t": 2.0,
         "batch": "b000001"},
        {"request": "r000002", "event": "dispatched", "t": 2.0,
         "batch": "b000001"},
        {"request": None, "event": "forward", "t": 2.5, "batch": "b000001",
         "seconds": 0.5},
        {"request": "r000001", "event": "completed", "t": 3.0,
         "batch": "b000001"},
        {"request": "r000003", "event": "enqueued", "t": 9.0},
    ]


class TestReconstruction:
    def test_read_trace_events_flattens_records(self):
        records = [
            {"kind": REQUEST_TRACE_KIND, "events": _events()[:3]},
            {"kind": "snapshot", "snapshot": {}},
            {"kind": REQUEST_TRACE_KIND, "events": _events()[3:]},
        ]
        assert read_trace_events(records) == _events()

    def test_timeline_includes_batch_work_and_siblings(self):
        timeline = reconstruct_request(_events(), "r000001")
        assert [e["event"] for e in timeline["events"]] == [
            "enqueued", "dispatched", "completed"
        ]
        assert timeline["batch"] == "b000001"
        assert [e["event"] for e in timeline["batch_events"]] == ["forward"]
        assert timeline["siblings"] == ["r000002"]

    def test_unknown_request_raises_keyerror(self):
        with pytest.raises(KeyError):
            reconstruct_request(_events(), "r999999")

    def test_render_timeline_mentions_every_hop(self):
        text = render_request_timeline(reconstruct_request(_events(), "r000001"))
        assert "request r000001" in text
        for token in ("enqueued", "dispatched", "completed",
                      "batch b000001", "forward"):
            assert token in text
        assert "1 sibling" in text


class TestTraceReportCli:
    def _store(self, tmp_path):
        store = tmp_path / "trace.jsonl"
        tracer = RequestTracer(sink=store)
        for event in _events():
            tracer.event(
                event["request"], event["event"], batch=event.get("batch"),
                t=event["t"],
                **{k: v for k, v in event.items()
                   if k not in ("request", "event", "t", "batch")},
            )
        tracer.flush()
        return store

    def test_request_timeline_printed(self, tmp_path, capsys):
        code = main(["trace-report", "--from-store",
                     str(self._store(tmp_path)), "--request", "r000001"])
        assert code == 0
        out = capsys.readouterr().out
        assert "request r000001" in out
        assert "completed" in out

    def test_unknown_request_exits_two(self, tmp_path, capsys):
        code = main(["trace-report", "--from-store",
                     str(self._store(tmp_path)), "--request", "r999999"])
        assert code == 2
        assert "not found" in capsys.readouterr().err.lower()

    def test_request_without_store_exits_two(self, capsys):
        code = main(["trace-report", "--request", "r000001"])
        assert code == 2
