"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.method == "standard"
        assert args.dataset == "mnist"

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "imagenet"])


class TestTheoryCommand:
    def test_prints_paper_table(self, capsys):
        assert main(["theory", "--c", "5"]) == 0
        out = capsys.readouterr().out
        assert "0.20" in out
        assert "1.99" in out
        assert "depth 4" in out


class TestFlopsCommand:
    def test_prints_speedups(self, capsys):
        assert main(["flops", "--arch", "100", "200", "10", "--batch", "20"]) == 0
        out = capsys.readouterr().out
        assert "speedup vs standard" in out
        assert "mc" in out


class TestDatasetsCommand:
    def test_lists_all_six(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("mnist", "kuzushiji", "fashion", "emnist_letters",
                     "norb", "cifar10"):
            assert name in out
        assert "104800" in out  # EMNIST train size from the paper


class TestRunCommand:
    def test_run_and_store_and_save(self, capsys, tmp_path):
        store = tmp_path / "results.jsonl"
        model = tmp_path / "model.npz"
        code = main(
            [
                "run",
                "--method", "standard",
                "--data-scale", "0.003",
                "--hidden-layers", "1",
                "--hidden-width", "16",
                "--epochs", "1",
                "--lr", "1e-2",
                "--store", str(store),
                "--save-model", str(model),
                "--confusion",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "acc=" in out
        assert "(predicted)" in out  # confusion matrix rendered
        assert store.exists()
        assert model.exists()
        # The stored outcome record must load back.
        from repro.harness.executor import JsonlSink

        assert len(JsonlSink(store).completed()) == 1
        # The saved model must load back.
        from repro.nn.serialize import load_mlp

        net = load_mlp(model)
        assert net.layer_sizes[0] == 784

    def test_paper_defaults_flag(self, capsys):
        code = main(
            [
                "run",
                "--method", "mc",
                "--paper-defaults",
                "--data-scale", "0.003",
                "--hidden-layers", "1",
                "--hidden-width", "16",
                "--epochs", "1",
            ]
        )
        assert code == 0
        assert "mc^M" in capsys.readouterr().out


    def test_save_model_trains_once_and_saves_the_trained_weights(
        self, capsys, tmp_path, monkeypatch
    ):
        """ALSH's sampled ``predict`` draws from the trainer RNG during
        validation, so a second training run would drift from the one
        reported."""
        from repro.core.base import Trainer
        from repro.nn.serialize import load_mlp

        fit, trained = Trainer.fit, []

        def recording_fit(trainer, *args, **kwargs):
            history = fit(trainer, *args, **kwargs)
            trained.append([(layer.W.copy(), layer.b.copy())
                            for layer in trainer.net.layers])
            return history

        monkeypatch.setattr(Trainer, "fit", recording_fit)
        model = tmp_path / "m.npz"
        assert main(["run", "--method", "alsh", "--paper-defaults",
                     "--batch-size", "1", "--epochs", "3",
                     "--hidden-layers", "2", "--hidden-width", "32",
                     "--data-scale", "0.01", "--save-model", str(model)]) == 0
        assert len(trained) == 1
        saved = load_mlp(model)
        for (W, b), layer in zip(trained[0], saved.layers):
            np.testing.assert_array_equal(layer.W, W)
            np.testing.assert_array_equal(layer.b, b)

    STORE_RUN = ["--hidden-layers", "1", "--hidden-width", "12",
                 "--data-scale", "0.003", "--epochs", "1"]

    def test_sweep_resume_caches_a_run_store_record(self, capsys, tmp_path):
        store = str(tmp_path / "s.jsonl")
        assert main(["run", "--store", store] + self.STORE_RUN) == 0
        capsys.readouterr()
        assert main(["sweep", "--methods", "standard", "--depths", "1",
                     "--hidden-width", "12", "--data-scale", "0.003",
                     "--epochs", "1", "--store", store, "--resume"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith("standard^M")]
        assert [r[2] for r in rows] == ["cached"]

    def test_monitor_prints_a_run_store_record(self, capsys, tmp_path):
        store = str(tmp_path / "s.jsonl")
        assert main(["run", "--store", store] + self.STORE_RUN) == 0
        capsys.readouterr()
        assert main(["monitor", store]) == 0
        out = capsys.readouterr().out
        assert "[ok] " in out
        assert "(1 record(s)" in out


def _usage_errors():
    ckpt = ["--checkpoint-dir", "ckpts"]
    return [
        ["run", "--checkpoint-every", "2"],
        ["run", "--checkpoint-every", "0"] + ckpt,
        ["sweep", "--store", "s.jsonl", "--checkpoint-every", "0"] + ckpt,
        ["sweep", "--store", "s.jsonl", "--checkpoint-every", "5"],
        ["stream", "--checkpoint-every", "0"],
        ["trace-report", "--probe-every", "0"],
        ["sweep", "--store", "s.jsonl", "--trace", "--probe-every", "0"],
        ["serve", "--topk", "0"],
        ["serve", "--topk", "-3"],
        ["serve", "--topk", "33"],  # the demo model has 32 classes
        ["serve", "--max-batch", "0"],
        ["serve", "--max-wait", "-1"],
        ["serve", "--requests", "-2"],
        ["serve", "--model", "missing.npz"],
        ["run", "--method", "foo"],
        ["run", "--optimizer", "lion"],
        ["run", "--optimizer", "momentum"],
        ["run", "--paper-defaults", "--method", "topk"],
        ["run", "--epochs", "0"],
        ["run", "--batch-size", "0"],
        ["run", "--hidden-width", "0"],
        ["trace-report", "--method", "foo"],
        ["trace-report", "--optimizer", "lion"],
        ["trace-report", "--epochs", "0"],
        ["compare", "--methods", "foo"],
        ["compare", "--methods", "topk"],  # a method without §8.4 defaults
        ["sweep", "--store", "s.jsonl", "--methods", "foo"],
        ["sweep", "--store", "s.jsonl", "--workers", "0"],
        ["sweep", "--store", "s.jsonl", "--timeout", "0"],
        ["sweep", "--store", "s.jsonl", "--retries", "-1"],
        ["sweep", "--store", "s.jsonl", "--reseed", "-1"],
        ["sweep", "--store", "s.jsonl", "--seed", "-1"],
        ["compare", "--data-scale", "0"],
        ["compare", "--seed", "-1"],
        ["run", "--seed", "-1"],
        ["run", "--lr", "0"],
        ["run", "--data-scale", "1.5"],
        ["trace-report", "--seed", "-1"],
        ["serve", "--seed", "-1"],
        ["stream", "--seed", "-1"],
        ["theory", "--c", "0"],
        ["theory", "--max-k", "0"],
        ["flops", "--batch", "0"],
        ["flops", "--arch", "5"],
        ["flops", "--arch", "5", "0", "3"],
        ["report", "t.jsonl", "--theory-c", "0"],
        ["monitor", "t.jsonl", "--follow", "--poll", "-1"],
        ["stream", "--drift-threshold", "-1"],
        ["stream", "--batches", "0"],
        ["serve", "--metrics-port", "-5"],
        ["serve", "--metrics-port", "70000"],
        ["stream", "--metrics-port", "-5"],
        ["stream", "--metrics-port", "70000"],
        ["serve", "--exact", "--requests", "20"],
        ["serve", "--version", "abc", "--requests", "20"],
        ["serve", "--slo", "slo.json", "--requests", "20"],
        ["serve", "--slo", "missing.json", "--metrics-port", "0"],
        ["stream", "--smoke", "--batches", "500"],  # given, even at its default
        ["stream", "--smoke", "--rebuild", "none"],
        ["stream", "--smoke", "--drift-threshold", "0.1"],
        ["stream", "--smoke", "--checkpoint-dir", "ckpts"],
        ["stream", "--smoke", "--checkpoint-every", "5"],
        ["stream", "--smoke", "--metrics-port", "0"],
        ["stream", "--smoke", "--store", "s.jsonl"],
    ]


@pytest.mark.parametrize("argv", _usage_errors(), ids=" ".join)
def test_flag_misuse_exits_2_without_traceback(argv, tmp_path):
    """A bad flag is one error line and exit 2, before any training."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro"] + argv,
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr
    assert not list(tmp_path.iterdir())  # no checkpoint, store or model


@pytest.fixture(scope="module")
def model_archives(tmp_path_factory):
    """A saved MLP, outside any command's cwd, and the archives of other
    models in ``tests/fixtures`` (see ``tests/nn/test_serialize.py``)."""
    from repro.nn.network import MLP
    from repro.nn.serialize import save_mlp

    out = tmp_path_factory.mktemp("models")
    fixtures = Path(__file__).resolve().parent / "fixtures"
    return {
        "mlp": save_mlp(MLP([8, 6, 3], seed=0), out / "mlp"),
        "conv": fixtures / "conv_classifier.npz",
        "tanh": fixtures / "mlp_tanh.npz",
    }


@pytest.mark.parametrize(
    "kind, extra, refusal",
    [
        ("conv", [], "holds a 'conv_classifier' archive, expected 'mlp'"),
        ("tanh", [], "hidden_activation is 'tanh'"),
        ("mlp", ["--version", "0" * 16], "does not match the pinned version"),
    ],
    ids=["conv-archive", "tanh-archive", "wrong-version"],
)
def test_serve_refuses_a_model_it_cannot_serve(
    model_archives, kind, extra, refusal, tmp_path
):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve",
         "--model", str(model_archives[kind])] + extra,
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and refusal in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert not list(tmp_path.iterdir())


class TestCompareCommand:
    def test_compare_two_methods(self, capsys):
        code = main(
            [
                "compare",
                "--data-scale", "0.003",
                "--hidden-layers", "1",
                "--hidden-width", "16",
                "--epochs", "1",
                "--methods", "standard", "mc",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "standard^M" in out
        assert "mc^M" in out


@pytest.fixture(scope="module")
def probed_trace(tmp_path_factory):
    """One tiny probed traced run stored to a JSONL file."""
    store = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    code = main(
        [
            "trace-report",
            "--method", "mc",
            "--data-scale", "0.003",
            "--hidden-layers", "2",
            "--hidden-width", "16",
            "--epochs", "1",
            "--probe-every", "2",
            "--store", str(store),
        ]
    )
    assert code == 0
    return store


class TestTraceReportCommand:
    def test_probed_run_prints_series(self, capsys, probed_trace):
        code = main(["trace-report", "--from-store", str(probed_trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "series:" in out
        assert "probe.mc.rel_bias" in out
        assert "probe.runs" in out

    def test_live_run_prints_backend_and_kernel_counters(self, capsys):
        code = main(["trace-report", "--method", "mc", "--epochs", "1",
                     "--data-scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend.used.reference" in out
        assert "kernel.flops.sampled_matmul" in out

    def test_from_store_missing_file_fails_cleanly(self, capsys, tmp_path):
        code = main(["trace-report", "--from-store", str(tmp_path / "no.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "trace file not found" in err
        assert "Traceback" not in err


class TestReportCommand:
    def test_writes_self_contained_html(self, capsys, probed_trace, tmp_path):
        out_path = tmp_path / "report.html"
        code = main(["report", str(probed_trace), "--out", str(out_path)])
        assert code == 0
        html = out_path.read_text()
        assert html.startswith("<!doctype html>")
        assert "Theorem 7.2 bound" in html
        assert "<script" not in html and "<link" not in html

    def test_no_theory_flag(self, probed_trace, tmp_path):
        out_path = tmp_path / "report.html"
        code = main(["report", str(probed_trace), "--out", str(out_path),
                     "--no-theory"])
        assert code == 0
        assert "Theorem 7.2 bound at c" not in out_path.read_text()

    def test_theory_c_is_refused_before_the_trace_is_read(
        self, capsys, probed_trace, tmp_path
    ):
        out_path = tmp_path / "report.html"
        with pytest.raises(SystemExit) as exc:
            main(["report", str(probed_trace), "--out", str(out_path),
                  "--theory-c", "0"])
        assert exc.value.code == 2
        assert "--theory-c: must be a finite positive number" in (
            capsys.readouterr().err
        )
        assert not out_path.exists()

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        code = main(["report", str(tmp_path / "missing.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "trace file not found" in err

    def test_empty_file_fails_cleanly(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2
        assert "trace file is empty" in capsys.readouterr().err

    def test_all_corrupt_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\nnor this\n")
        assert main(["report", str(bad)]) == 2
        assert "2 corrupt line(s)" in capsys.readouterr().err

    def test_corrupt_lines_skipped_with_warning(self, capsys, probed_trace,
                                                tmp_path):
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(probed_trace.read_text() + "{truncated\n")
        out_path = tmp_path / "report.html"
        code = main(["report", str(mixed), "--out", str(out_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "skipped 1 corrupt line(s)" in captured.err
        assert out_path.exists()


class TestMonitorCommand:
    def test_prints_rolling_summaries(self, capsys, probed_trace):
        code = main(["monitor", str(probed_trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[trace]" in out
        assert "epochs=1" in out

    def test_missing_sink_fails_cleanly(self, capsys, tmp_path):
        code = main(["monitor", str(tmp_path / "missing.jsonl")])
        assert code == 2
        assert "sink file not found" in capsys.readouterr().err

    def test_reader_closing_the_pipe_ends_quietly(self, tmp_path):
        """``monitor S | head -n 1``: exit 0, nothing on stderr.  The
        store prints far more than a pipe buffer holds, so the monitor
        is still writing when the reader goes."""
        store = tmp_path / "s.jsonl"
        store.write_text("".join(
            f'{{"status": "ok", "key": "run{i:05d}"}}\n' for i in range(20000)
        ))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "monitor", str(store)],
            cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1"),
        )
        assert proc.stdout.readline() == b"[ok] run00000\n"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        assert stderr == b""


class TestSweepProbeFlag:
    def test_probe_every_requires_trace(self, capsys, tmp_path):
        code = main(
            ["sweep", "--store", str(tmp_path / "s.jsonl"),
             "--probe-every", "5"]
        )
        assert code == 2
        assert "--probe-every requires --trace" in capsys.readouterr().err


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.requests is None  # 256, or 1000 with --smoke
        assert args.topk is None
        assert not args.smoke

    def test_requests_default_and_explicit_value(self, capsys, monkeypatch):
        """An explicit --requests equal to a default is honoured as given."""
        from repro.serve import server

        fired = []
        monkeypatch.setattr(
            server, "run_smoke", lambda requests, **kw: fired.append(requests) or 0
        )
        assert main(["serve", "--smoke", "--requests", "256"]) == 0
        assert main(["serve", "--smoke"]) == 0
        assert fired == [256, 1000]
        assert main(["serve"]) == 0
        assert "256/256 served" in capsys.readouterr().out

    def test_serve_seeded_model(self, capsys):
        assert main(["serve", "--requests", "32"]) == 0
        out = capsys.readouterr().out
        assert "model demo@" in out
        assert "32/32 served, 0 shed, 0 failed" in out

    def test_serve_topk_mode(self, capsys):
        assert main(["serve", "--requests", "16", "--topk", "3"]) == 0
        assert "mode topk" in capsys.readouterr().out

    def test_serve_saved_checkpoint(self, capsys, tmp_path):
        from repro.nn.network import MLP
        from repro.nn.serialize import save_mlp

        path = tmp_path / "model.npz"
        save_mlp(MLP([6, 8, 4], seed=0), path)
        code = main(["serve", "--model", str(path), "--requests", "8"])
        assert code == 0
        assert "(mlp), mode logproba" in capsys.readouterr().out

    def test_smoke_honours_serve_flags(self, capsys, tmp_path):
        from repro.obs.sink import read_traces

        store = str(tmp_path / "s.jsonl")
        assert main(["serve", "--smoke", "--topk", "3", "--max-batch", "4",
                     "--requests", "64", "--store", store]) == 0
        (record,) = read_traces(store)
        snapshot = record["snapshot"]
        assert snapshot["counters"]["serve.head.queries"] == 64
        sizes = [size for _, size in snapshot["series"]["serve.batch_size"]]
        assert sizes and max(sizes) <= 4

    def test_slo_without_metrics_port_is_refused(self, capsys, tmp_path):
        spec = tmp_path / "slo.json"
        spec.write_text('{"slos": [{"name": "p99", "histogram": '
                        '"serve.latency_s", "quantile": 0.99, "max": 1.0}]}')
        assert main(["serve", "--slo", str(spec), "--requests", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --slo requires --metrics-port\n"
        assert "served" not in captured.out

    def test_serve_bench_parser(self):
        from repro.serve import bench as serve_bench

        args = build_parser().parse_args(["bench", "serve", "--quick", "--check"])
        assert args.suite == "serve" and args.quick and args.check
        assert args.min_speedup is None
        assert serve_bench.MIN_SPEEDUP == 2.0


class TestStreamCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.batches == 500
        assert args.rebuild == "drift"
        assert not args.smoke

    def test_stream_short_session(self, capsys):
        assert main(["stream", "--batches", "12"]) == 0
        out = capsys.readouterr().out
        assert "stream: 12 batches" in out
        assert "policy drift" in out

    def test_stream_resumes_from_checkpoint_dir(self, capsys, tmp_path):
        assert main(["stream", "--batches", "10",
                     "--checkpoint-dir", str(tmp_path),
                     "--checkpoint-every", "5"]) == 0
        assert main(["stream", "--batches", "20",
                     "--checkpoint-dir", str(tmp_path),
                     "--checkpoint-every", "5"]) == 0
        out = capsys.readouterr().out
        assert "stream: 20 batches (10 this session" in out

    def test_stream_bench_parser(self):
        from repro.stream import bench as stream_bench

        args = build_parser().parse_args(["bench", "stream", "--quick", "--check"])
        assert args.suite == "stream" and args.quick and args.check
        assert stream_bench.MIN_THROUGHPUT_RATIO == 0.8
        assert stream_bench.MIN_RECALL == 0.4
