"""Tests for the experiment runner."""

import numpy as np
import pytest

from repro.core.base import Trainer
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import build_network, run_experiment


@pytest.fixture(scope="module")
def quick_config():
    return ExperimentConfig(
        method="standard",
        dataset="mnist",
        data_scale=0.003,
        hidden_layers=2,
        hidden_width=24,
        epochs=2,
        batch_size=10,
        lr=1e-2,
        seed=0,
    )


class TestBuildNetwork:
    def test_architecture(self, quick_config, tiny_dataset):
        net = build_network(quick_config, tiny_dataset)
        assert net.layer_sizes == [
            tiny_dataset.input_dim, 24, 24, tiny_dataset.n_classes
        ]

    def test_zero_hidden_layers(self, tiny_dataset):
        cfg = ExperimentConfig(hidden_layers=0, hidden_width=24)
        net = build_network(cfg, tiny_dataset)
        assert net.layer_sizes == [tiny_dataset.input_dim, tiny_dataset.n_classes]


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def result(self, quick_config):
        return run_experiment(quick_config)

    def test_history_populated(self, result):
        assert len(result.history.epochs) == 2
        assert result.history.method == "standard"

    def test_accuracy_in_range(self, result):
        assert 0.0 <= result.test_accuracy <= 1.0

    def test_confusion_matrix_shape_and_mass(self, result):
        assert result.confusion.shape == (10, 10)
        assert result.confusion.sum() > 0

    def test_collapse_diagnostics(self, result):
        assert 0.0 <= result.pred_entropy <= np.log(10) + 1e-9
        assert 1 <= result.n_distinct_predictions <= 10

    def test_timing(self, result):
        assert result.train_time > 0
        assert result.time_per_epoch == pytest.approx(result.train_time / 2)

    def test_memory_breakdown(self, result):
        assert result.memory_breakdown["weights"] > 0
        assert "total" in result.memory_breakdown

    def test_summary_readable(self, result):
        text = result.summary()
        assert "standard^M" in text
        assert "mnist" in text

    def test_external_dataset_reused(self, quick_config, tiny_dataset):
        cfg = quick_config.with_overrides(hidden_width=16, epochs=1)
        result = run_experiment(cfg, dataset=tiny_dataset)
        assert result.confusion.shape == (3, 3)

    def test_deterministic_given_seed(self, quick_config):
        a = run_experiment(quick_config)
        b = run_experiment(quick_config)
        assert a.test_accuracy == b.test_accuracy
        np.testing.assert_array_equal(a.confusion, b.confusion)

    @pytest.mark.parametrize("method", ["dropout", "adaptive_dropout", "mc"])
    def test_other_methods_run(self, quick_config, method):
        cfg = quick_config.with_overrides(method=method, epochs=1)
        result = run_experiment(cfg)
        assert 0.0 <= result.test_accuracy <= 1.0

    def test_alsh_runs_stochastic(self, quick_config):
        cfg = quick_config.with_overrides(
            method="alsh", optimizer="adam", batch_size=1, epochs=1,
            hidden_layers=1,
        )
        result = run_experiment(cfg)
        assert 0.0 <= result.test_accuracy <= 1.0

    def test_unknown_method_is_refused_before_training(self, monkeypatch):
        """``alsh-approx`` names no trainer (the method is ``alsh``)."""

        def fit(*args, **kwargs):
            raise AssertionError("a trainer started training")

        monkeypatch.setattr(Trainer, "fit", fit)
        cfg = ExperimentConfig(
            method="alsh-approx", data_scale=0.005, epochs=1,
            hidden_layers=1, hidden_width=8, optimizer="adam",
        )
        with pytest.raises(ValueError, match="unknown trainer 'alsh-approx'"):
            run_experiment(cfg)
