"""CLI surface of the backend layer: --backend flags and the backend bench."""

import json

import pytest

from repro.backend.bench import configs, gate, shape_key
from repro.cli import main


def test_sweep_records_backend_in_task_records(tmp_path, capsys):
    store = tmp_path / "sweep.jsonl"
    rc = main(
        [
            "sweep",
            "--methods", "mc", "standard",
            "--depths", "1",
            "--epochs", "1",
            "--data-scale", "0.01",
            "--backend", "fast",
            "--store", str(store),
        ]
    )
    assert rc == 0
    records = [json.loads(line) for line in store.read_text().splitlines()]
    tasks = [r for r in records if r.get("status") == "ok"]
    assert len(tasks) == 2
    for record in tasks:
        assert record["result"]["payload"]["config"]["backend"] == "fast"
        assert "('backend', 'fast')" in record["key"]


def test_trace_report_backend_flag_lands_in_counters(capsys):
    rc = main(
        [
            "trace-report",
            "--method", "mc",
            "--epochs", "1",
            "--data-scale", "0.01",
            "--backend", "fast",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "backend.used.fast" in out
    assert "kernel.flops.sampled_matmul" in out


def test_run_rejects_unknown_backend(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--backend", "gpu"])
    assert "--backend" in capsys.readouterr().err


def test_backend_bench_quick_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "BENCH_backend.json"
    rc = main(["bench", "backend", "--quick", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["bench"] == "compute_backend"
    assert payload["quick"] is True
    gated = [r for r in payload["records"] if r.get("gate")]
    assert len(gated) == 2
    for record in payload["records"]:
        assert record["fast_close"] is True
        assert set(record["speedup"]) == {"fast"}


def test_bench_gate_flags_slow_fast_backend():
    record = dict(configs(quick=True)[0])
    record.update(
        {
            "reference": 1.0,
            "fast": 2.0,
            "speedup": {"fast": 0.5},
            "fast_close": True,
        }
    )
    failures = gate([record], quick=True, min_speedup=1.0)
    assert len(failures) == 1
    assert shape_key(record) in failures[0]
    # An ungated shape may lose without failing the gate.
    record["gate"] = False
    assert gate([record], quick=True, min_speedup=1.0) == []
    # Divergence fails regardless of gating.
    record["fast_close"] = False
    assert any("tolerance" in f for f in gate([record], quick=True))
