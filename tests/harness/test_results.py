"""Tests for experiment-result persistence."""

import numpy as np
import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.experiment import run_experiment
from repro.harness.executor import JsonlSink, TaskOutcome
from repro.harness.results import result_from_dict, result_to_dict


@pytest.fixture(scope="module")
def result(tiny_dataset):
    cfg = ExperimentConfig(
        method="standard", hidden_layers=1, hidden_width=16,
        epochs=2, batch_size=20, lr=1e-2, seed=0,
    )
    return run_experiment(cfg, dataset=tiny_dataset)


class TestRoundTrip:
    def test_dict_round_trip(self, result):
        restored = result_from_dict(result_to_dict(result))
        assert restored.config == result.config
        assert restored.test_accuracy == result.test_accuracy
        np.testing.assert_array_equal(restored.confusion, result.confusion)
        assert len(restored.history.epochs) == len(result.history.epochs)
        assert restored.history.epochs[0].loss == result.history.epochs[0].loss

    def test_json_serialisable(self, result):
        import json

        text = json.dumps(result_to_dict(result))
        assert "standard" in text


class TestStore:
    """Finished results live as ``ok`` records of the executor's sink."""

    def ok(self, result):
        return TaskOutcome(index=0, key=result.config.key(), status="ok",
                           result=result, attempts=1)

    def test_append_and_load(self, result, tmp_path):
        sink = JsonlSink(tmp_path / "runs" / "results.jsonl")
        sink.append_outcome(self.ok(result))
        sink.append_outcome(self.ok(result))
        assert len(sink.load()) == 2
        done = sink.completed()
        assert list(done) == [result.config.key()]
        loaded = result_from_dict(done[result.config.key()]["result"]["payload"])
        assert loaded.test_accuracy == result.test_accuracy

    def test_load_missing_is_empty(self, tmp_path):
        assert JsonlSink(tmp_path / "none.jsonl").completed() == {}

    def test_partial_lines_ignored(self, result, tmp_path):
        path = tmp_path / "r.jsonl"
        sink = JsonlSink(path)
        sink.append_outcome(self.ok(result))
        with open(path, "a") as f:
            f.write("\n")  # stray blank line
            f.write('{"key": "half-written')  # crash mid-append
        assert len(sink.load()) == 1
        assert list(sink.completed()) == [result.config.key()]
