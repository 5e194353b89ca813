"""Sweep stores and checkpoints written while configs had a ``backend`` field.

``tests/fixtures/sweep_backend_field.jsonl`` was written by the last
version that offered two compute backends, with::

    python -m repro sweep --methods standard mc --depths 1 \\
        --data-scale 0.01 --epochs 1 --store sweep_backend_field.jsonl

and then again at ``--depths 2`` with that version's ``fast`` backend
selected on the command line.  Its depth-1 records carry
``"backend": null`` and must resume as ``cached``; its depth-2 records
ran on the removed ``fast`` backend, so their keys match no config any
more and those configs run again.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.config import ExperimentConfig
from repro.harness.results import result_from_dict

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "sweep_backend_field.jsonl"


def _payloads():
    records = [json.loads(line) for line in FIXTURE.read_text().splitlines()]
    return [r["result"]["payload"] for r in records]


def test_checkpoint_tags_unchanged():
    assert ExperimentConfig().checkpoint_tag() == "standard-5ba1fc6399a1ebe3"
    assert (ExperimentConfig.paper_default("alsh", batch_size=1).checkpoint_tag()
            == "alsh-e2e14004a74f2c8d")


@pytest.mark.parametrize("backend", [None, "reference"])
def test_plain_records_load(backend):
    payload = _payloads()[0]
    payload["config"]["backend"] = backend
    config = result_from_dict(payload).config
    assert config == ExperimentConfig(method="standard", data_scale=0.01,
                                      hidden_layers=1, epochs=1)


def test_fast_records_are_refused():
    payload = _payloads()[-1]
    assert payload["config"]["backend"] == "fast"
    with pytest.raises(ValueError, match="removed 'fast' compute backend"):
        result_from_dict(payload)


def test_resume_caches_plain_configs_and_reruns_fast_ones(tmp_path, capsys):
    store = tmp_path / "sweep.jsonl"
    shutil.copy(FIXTURE, store)
    rc = main(["sweep", "--methods", "standard", "mc", "--depths", "1", "2",
               "--data-scale", "0.01", "--epochs", "1", "--store", str(store),
               "--resume"])
    assert rc == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith(("standard^M", "mc^M"))]
    assert {(r[0], r[1]): r[2] for r in rows} == {
        ("standard^M", "1"): "cached", ("mc^M", "1"): "cached",
        ("standard^M", "2"): "ok", ("mc^M", "2"): "ok",
    }
