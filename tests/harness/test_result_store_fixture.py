"""Result stores written before ``run --store`` and ``Sweep.run`` wrote
the executor's outcome records.

``tests/fixtures/result_store_legacy.jsonl`` was written by the last
version with a separate ``ResultStore``, with::

    python -m repro run --method standard --hidden-layers 1 \\
        --data-scale 0.01 --epochs 1 --store result_store_legacy.jsonl

and then::

    Sweep(ExperimentConfig(data_scale=0.01, epochs=1),
          {"method": ["mc"], "hidden_layers": [1]}
          ).run(store=ResultStore("result_store_legacy.jsonl"))

Each line is a bare result dict with no status or key.  Both must resume
as ``cached`` outcomes of their config.  A line whose config ran on the
removed ``fast`` backend matches no config, so that config runs again.
"""

import json
import shutil
from pathlib import Path

from repro.cli import main
from repro.harness.config import ExperimentConfig
from repro.harness.sweeps import Sweep

FIXTURE = (
    Path(__file__).resolve().parent.parent / "fixtures" / "result_store_legacy.jsonl"
)
SWEEP = ["sweep", "--data-scale", "0.01", "--epochs", "1", "--resume"]


def statuses(out):
    rows = [line.split() for line in out.splitlines()
            if line.startswith(("standard^M", "mc^M"))]
    return {(r[0], r[1]): r[2] for r in rows}


def test_sweep_resume_caches_legacy_lines(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    shutil.copy(FIXTURE, store)
    assert main(SWEEP + ["--methods", "standard", "mc", "--depths", "1", "2",
                         "--store", str(store)]) == 0
    assert statuses(capsys.readouterr().out) == {
        ("standard^M", "1"): "cached", ("mc^M", "1"): "cached",
        ("standard^M", "2"): "ok", ("mc^M", "2"): "ok",
    }


def test_sweep_run_resumes_legacy_lines(tmp_path):
    store = tmp_path / "store.jsonl"
    shutil.copy(FIXTURE, store)
    stored = [json.loads(line) for line in FIXTURE.read_text().splitlines()]
    sweep = Sweep(ExperimentConfig(data_scale=0.01, epochs=1),
                  {"method": ["standard", "mc"], "hidden_layers": [1]})
    ran = []
    results = sweep.run(store=store, callback=ran.append)
    assert ran == []
    assert [r.test_accuracy for r in results] == [
        s["test_accuracy"] for s in stored
    ]


def test_legacy_fast_line_runs_again(tmp_path, capsys):
    lines = FIXTURE.read_text().splitlines()
    record = json.loads(lines[0])
    assert record["config"]["method"] == "standard"
    record["config"]["backend"] = "fast"
    store = tmp_path / "store.jsonl"
    store.write_text(json.dumps(record) + "\n" + lines[1] + "\n")
    assert main(SWEEP + ["--methods", "standard", "mc", "--depths", "1",
                         "--store", str(store)]) == 0
    assert statuses(capsys.readouterr().out) == {
        ("standard^M", "1"): "ok", ("mc^M", "1"): "cached",
    }
