"""Tests for the declarative sweep runner."""

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.executor import JsonlSink
from repro.harness.sweeps import Sweep


@pytest.fixture
def base():
    return ExperimentConfig(
        method="standard", hidden_layers=1, hidden_width=12,
        epochs=1, batch_size=20, lr=1e-2, seed=0,
    )


class TestValidation:
    def test_empty_grid(self, base):
        with pytest.raises(ValueError):
            Sweep(base, {})

    def test_unknown_field(self, base):
        with pytest.raises(ValueError, match="unknown config fields"):
            Sweep(base, {"widht": [1]})

    def test_empty_values(self, base):
        with pytest.raises(ValueError):
            Sweep(base, {"epochs": []})


class TestExpansion:
    def test_len_is_product(self, base):
        sweep = Sweep(base, {"hidden_layers": [1, 2, 3], "method": ["standard", "mc"]})
        assert len(sweep) == 6

    def test_configs_cover_grid(self, base):
        sweep = Sweep(base, {"hidden_layers": [1, 2], "epochs": [1, 3]})
        combos = {(c.hidden_layers, c.epochs) for c in sweep.configs()}
        assert combos == {(1, 1), (1, 3), (2, 1), (2, 3)}

    def test_base_fields_preserved(self, base):
        sweep = Sweep(base, {"hidden_layers": [2]})
        cfg = next(sweep.configs())
        assert cfg.hidden_width == 12
        assert cfg.method == "standard"

    def test_paper_defaults_apply_method_settings(self, base):
        sweep = Sweep(
            base, {"method": ["alsh", "mc"], "batch_size": [1]},
            paper_defaults=True,
        )
        by_method = {c.method: c for c in sweep.configs()}
        assert by_method["alsh"].optimizer == "adam"
        assert by_method["mc"].lr == pytest.approx(1e-4)  # §9.3 S setting
        assert by_method["mc"].hidden_width == 12  # base carried over


class TestRun:
    def test_runs_and_stores(self, base, tiny_dataset, tmp_path):
        store = JsonlSink(tmp_path / "sweep.jsonl")
        sweep = Sweep(base, {"hidden_layers": [1, 2]})
        results = sweep.run(store=store, dataset=tiny_dataset)
        assert len(results) == 2
        assert len(store.load()) == 2

    def test_resume_skips_done(self, base, tiny_dataset, tmp_path):
        store = JsonlSink(tmp_path / "sweep.jsonl")
        sweep = Sweep(base, {"hidden_layers": [1, 2]})
        sweep.run(store=store, dataset=tiny_dataset)
        ran = []
        sweep.run(
            store=store, dataset=tiny_dataset,
            callback=lambda r: ran.append(r),
        )
        assert ran == []  # everything resumed from the store
        assert len(store.load()) == 2  # nothing re-appended

    def test_partial_resume(self, base, tiny_dataset, tmp_path):
        store = JsonlSink(tmp_path / "sweep.jsonl")
        Sweep(base, {"hidden_layers": [1]}).run(store=store, dataset=tiny_dataset)
        ran = []
        results = Sweep(base, {"hidden_layers": [1, 2]}).run(
            store=store, dataset=tiny_dataset,
            callback=lambda r: ran.append(r),
        )
        assert len(results) == 2
        assert len(ran) == 1
        assert ran[0].config.hidden_layers == 2

    def test_store_as_path_string(self, base, tiny_dataset, tmp_path):
        path = tmp_path / "s.jsonl"
        Sweep(base, {"epochs": [1]}).run(store=str(path), dataset=tiny_dataset)
        assert path.exists()

    def test_no_store_runs_everything(self, base, tiny_dataset):
        results = Sweep(base, {"hidden_layers": [1]}).run(dataset=tiny_dataset)
        assert len(results) == 1

    def test_truncated_last_line_resumes(self, base, tiny_dataset, tmp_path):
        """A crash mid-append loses at most that record."""
        path = str(tmp_path / "sweep.jsonl")
        sweep = Sweep(base, {"hidden_layers": [1, 2]})
        first = sweep.run(store=path, dataset=tiny_dataset)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"config": {"method": "half-written')
        ran = []
        results = sweep.run(store=path, dataset=tiny_dataset, callback=ran.append)
        assert ran == []
        assert [r.test_accuracy for r in results] == [
            r.test_accuracy for r in first
        ]

    def test_resumes_a_sweep_cli_store(self, tmp_path, capsys):
        """Sweep.run and ``sweep --store`` write and read one format."""
        from repro.cli import main

        path = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--methods", "standard", "mc", "--depths", "1",
                     "--hidden-width", "12", "--data-scale", "0.003",
                     "--epochs", "1", "--store", str(path)]) == 0
        capsys.readouterr()
        base = ExperimentConfig(hidden_width=12, data_scale=0.003, epochs=1)
        sweep = Sweep(base, {"method": ["standard", "mc"], "hidden_layers": [1]})
        ran = []
        results = sweep.run(store=str(path), callback=ran.append)
        assert ran == []
        assert [r.config.method for r in results] == ["standard", "mc"]
