"""The bench harness and the gates of its serve, stream and obs suites.

Each gate table starts from a clean synthetic record set that passes,
then breaks one condition per case and expects exactly that failure,
limit included.
"""

import json
import sys
import types

import pytest

from repro.cli import main
from repro.harness import bench, obs_bench
from repro.obs import InMemoryRecorder
from repro.serve import bench as serve_bench
from repro.stream import bench as stream_bench


def _serve_records():
    records = {}
    for config in serve_bench.configs(quick=True):
        record = dict(config, k=10, served=400, shed=0, failed=0,
                      qps=4000.0 if config["batching"] == "micro" else 1000.0)
        if config["head"] == "alsh":
            record["recall_at_k"] = 0.965625
        records[config["head"], config["batching"]] = record
    return records


@pytest.mark.parametrize("config, field, value, failure", [
    (("exact", "micro"), "qps", 1500.0, "serve-bench:exact: micro-batching "
     "only 1.50x batch-1 qps (need >= 2.00x)"),
    (("alsh", "batch1"), "qps", 2500.0, "serve-bench:alsh: micro-batching "
     "only 1.60x batch-1 qps (need >= 2.00x)"),
    (("alsh", "micro"), "recall_at_k", 0.85,
     "serve-bench:alsh:micro: recall@10 0.850 below 0.90"),
    (("exact", "batch1"), "shed", 3,
     "serve-bench:exact:batch1: 3 shed / 0 failed under nominal bench load"),
    (("alsh", "batch1"), "failed", 2,
     "serve-bench:alsh:batch1: 0 shed / 2 failed under nominal bench load"),
])
def test_serve_gate(config, field, value, failure):
    records = _serve_records()
    assert serve_bench.gate(list(records.values()), quick=True) == []
    records[config][field] = value
    assert serve_bench.gate(list(records.values()), quick=True) == [failure]


def _stream_records():
    fields = {  # recall, rebuilds, samples/s, re-hashed items, garbage
        "count": (0.578125, 120, 7000.0, 60000, 0.302),
        "drift": (0.5890625, 120, 7000.0, 60000, 0.32),
        "none": (0.2, 0, 9000.0, 0, 0.95),  # ungated: never fails
    }
    records = {}
    for config in stream_bench.configs(quick=True):
        recall, rebuilds, rate, items, garbage = fields[config["policy"]]
        records[config["policy"]] = dict(
            config, k=10, recall_at_k=recall, rebuilds=rebuilds,
            samples_per_s=rate, rehashed_items=items,
            garbage_frac_max=garbage,
        )
    return records


@pytest.mark.parametrize("quick, changes, failure", [
    (True, {"drift": {"recall_at_k": 0.55}}, "stream-bench:drift: recall "
     "0.550 below the count schedule's 0.578 (eps 0.02)"),
    (True, {"drift": {"rebuilds": 121}}, "stream-bench:drift: 121 rebuild "
     "events exceed the count schedule's 120"),
    (True, {"drift": {"samples_per_s": 5250.0}}, "stream-bench:drift: "
     "throughput 0.75x the count schedule (need >= 0.80x)"),
    (True, {"count": {"recall_at_k": 0.35}},
     "stream-bench:count: recall@10 0.350 below the 0.40 floor"),
    (True, {"count": {"garbage_frac_max": 0.85}},
     "stream-bench:count: garbage fraction peaked at 0.850 (> 0.80) — "
     "update path not bounded"),
    (True, {"count": {"rehashed_items": 900}, "drift": {"rehashed_items": 900}},
     "stream-bench: only 1800 items streamed through the update path "
     "across gated configs (need >= 2000)"),
    (False, {"count": {"rehashed_items": 30000}}, "stream-bench: only 90000 "
     "items streamed through the update path across gated configs "
     "(need >= 100000)"),
])
def test_stream_gate(quick, changes, failure):
    records = _stream_records()
    assert stream_bench.gate(list(records.values()), quick) == []
    for policy, fields in changes.items():
        records[policy].update(fields)
    assert stream_bench.gate(list(records.values()), quick) == [failure]


def _obs_records(**overheads):
    return [
        dict(config, seconds=1.0, **(
            {"overhead": overheads.get(config["variant"], 0.0)}
            if config["baseline"] else {}))
        for config in obs_bench.configs(quick=True)
    ]


@pytest.mark.parametrize("variant, failure", [
    ("null_probed", "obs-bench:null_probed: probes attached under "
     "NullRecorder cost +3.50% over null (limit 3%)"),
    ("inmem_probed", "obs-bench:inmem_probed: default-cadence probes under "
     "InMemoryRecorder cost +5.50% over inmem (limit 5%)"),
    ("serve_telemetry", "obs-bench:serve_telemetry: serve histograms + "
     "request tracing cost +5.50% over serve_null (limit 5%)"),
])
def test_obs_gate(variant, failure):
    clean = {"null_probed": 0.025, "inmem_probed": 0.045,
             "serve_telemetry": 0.045, "inmem": 0.5}  # inmem is ungated
    assert obs_bench.gate(_obs_records(**clean), quick=True) == []
    clean[variant] += 0.01
    assert obs_bench.gate(_obs_records(**clean), quick=True) == [failure]


@pytest.fixture
def stub_suite(monkeypatch):
    """A two-config suite whose gate always fails."""
    suite = types.ModuleType("stub_suite")
    suite.HEADER = {"model": "stub"}
    suite.TRACE_KEY = "stub-bench"
    suite.configs = lambda quick: [{"name": "a", "gate": True}, {"name": "b"}]
    suite.run = lambda configs: (
        dict(c, value=1.0, _snapshot=InMemoryRecorder().snapshot())
        for c in configs
    )
    suite.summary = lambda record: record["name"]
    suite.gate = lambda records, quick: ["stub failure"]
    monkeypatch.setitem(sys.modules, "stub_suite", suite)
    monkeypatch.setitem(bench.SUITES, "stub", "stub_suite")


def test_harness_writes_gates_and_stores(stub_suite, tmp_path, capsys):
    out, store = tmp_path / "BENCH_stub.json", tmp_path / "trace.jsonl"
    argv = ["bench", "stub", "--out", str(out)]
    assert main(argv + ["--check", "--store", str(store)]) == 1
    assert main(argv) == 0
    assert capsys.readouterr().err.count("FAIL: stub failure") == 2
    payload = json.loads(out.read_text())
    assert payload["bench"] == "stub" and payload["model"] == "stub"
    assert set(payload["environment"]) == {
        "cpu_model", "nproc", "blas_vendor", "blas_version", "blas_threads",
        "numpy", "python", "compute_backend",
    }
    assert payload["records"] == [
        {"name": "a", "gate": True, "value": 1.0}, {"name": "b", "value": 1.0},
    ]
    traces = [json.loads(line) for line in store.read_text().splitlines()]
    assert [t["key"] for t in traces] == ["stub-bench"]


@pytest.mark.parametrize("argv", [
    ["bench", "obs", "--store"], ["bench", "stream", "--min-speedup"],
    ["bench", "obs", "--min-speedup"],
])
def test_suite_refuses_a_flag_it_cannot_use(argv, tmp_path, capsys):
    value = str(tmp_path / "trace.jsonl") if argv[-1] == "--store" else "1.5"
    assert main(argv + [value, "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{argv[-1]} does not apply" in err
    assert list(tmp_path.iterdir()) == []


def test_removed_backend_suite_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "backend", "--out", str(tmp_path / "out.json")])
    assert exit_info.value.code == 2
    assert "invalid choice: 'backend'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
