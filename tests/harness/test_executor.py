"""Tests for the multiprocess fault-tolerant experiment executor.

Covers the contract the benches and CLI rely on: a parallel sweep equals
the serial sweep bit-for-bit for the same seeds; injected failures are
retried and recorded in the JSONL sink (never swallowed); a timed-out task
does not abort the sweep; and a partial sink resumes correctly.

Task functions live at module level so worker processes can unpickle them.
"""

import json
import re
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from repro.core.registry import make_trainer
from repro.harness.config import ExperimentConfig
from repro.harness.executor import (
    ExecutorError,
    ExperimentExecutor,
    ExperimentTask,
    JsonlSink,
    derive_task_seeds,
    task_key,
)
from repro.harness.experiment import run_experiment
from repro.harness.sweeps import Sweep
from repro.nn.network import MLP

PAPER_METHODS = ["standard", "dropout", "adaptive_dropout", "alsh", "mc"]


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        method="standard", hidden_layers=1, hidden_width=8,
        epochs=1, batch_size=20, lr=1e-2, seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------------
# module-level task functions (picklable)
# ----------------------------------------------------------------------
def double_task(task, dataset):
    return task["value"] * 2


def flaky_task(task, dataset):
    """Raises until its marker file exists — one injected crash per task."""
    marker = Path(task["marker"])
    if task.get("crash") and not marker.exists():
        marker.touch()
        raise RuntimeError("injected worker crash")
    return task["value"]


def sleepy_task(task, dataset):
    time.sleep(task.get("sleep", 0.0))
    return task["value"]


def counting_task(task, dataset):
    """Records every execution as a file so tests can count re-runs."""
    stamp = Path(task["dir"]) / f"run-{task['value']}-{time.monotonic_ns()}"
    stamp.touch()
    if task.get("fail"):
        raise RuntimeError("injected failure")
    return task["value"]


# ----------------------------------------------------------------------
def assert_results_equal(a, b):
    """Bitwise equality of the trained outcome (wall-clock aside)."""
    np.testing.assert_array_equal(a.history.losses(), b.history.losses())
    np.testing.assert_array_equal(a.confusion, b.confusion)
    assert a.test_accuracy == b.test_accuracy
    assert a.pred_entropy == b.pred_entropy
    assert a.n_distinct_predictions == b.n_distinct_predictions


class TestSerialParallelEquality:
    def test_four_workers_match_serial(self, tiny_dataset):
        """A 4-worker sweep of 8 configs equals the serial run bitwise."""
        configs = [
            small_config(method=m, hidden_layers=d, seed=s)
            for m in ("standard", "mc")
            for d in (1, 2)
            for s in (0, 1)
        ]
        assert len(configs) == 8
        serial = ExperimentExecutor(max_workers=1).run(configs, dataset=tiny_dataset)
        parallel = ExperimentExecutor(max_workers=4).run(configs, dataset=tiny_dataset)
        assert [o.status for o in serial] == ["ok"] * 8
        assert [o.status for o in parallel] == ["ok"] * 8
        for s, p in zip(serial, parallel):
            assert_results_equal(s.result, p.result)

    def test_outcomes_keep_task_order(self, tiny_dataset):
        configs = [small_config(seed=s) for s in range(6)]
        outcomes = ExperimentExecutor(max_workers=3).run(configs, dataset=tiny_dataset)
        assert [o.index for o in outcomes] == list(range(6))
        assert [o.key for o in outcomes] == [c.key() for c in configs]

    def test_sweep_run_with_workers_matches_serial(self, tiny_dataset):
        sweep = Sweep(small_config(), {"hidden_layers": [1, 2], "seed": [0, 1]})
        serial = sweep.run(dataset=tiny_dataset)
        parallel = sweep.run(dataset=tiny_dataset, workers=2)
        for s, p in zip(serial, parallel):
            assert_results_equal(s, p)


class TestSeedDerivation:
    def test_seeds_deterministic_and_distinct(self):
        a = derive_task_seeds(123, 16)
        assert a == derive_task_seeds(123, 16)
        assert len(set(a)) == 16
        assert a[:8] == derive_task_seeds(123, 8)  # prefix-stable

    def test_different_roots_differ(self):
        assert derive_task_seeds(0, 8) != derive_task_seeds(1, 8)

    def test_reseed_independent_of_worker_count(self, tiny_dataset):
        configs = [small_config() for _ in range(4)]
        serial = ExperimentExecutor(max_workers=1).run(
            configs, dataset=tiny_dataset, reseed=99
        )
        parallel = ExperimentExecutor(max_workers=4).run(
            configs, dataset=tiny_dataset, reseed=99
        )
        seeds = derive_task_seeds(99, 4)
        for i, (s, p) in enumerate(zip(serial, parallel)):
            assert_results_equal(s.result, p.result)
            assert s.result.config.seed == seeds[i]


class TestFaultInjection:
    def test_crash_is_retried_and_recorded(self, tmp_path):
        sink = tmp_path / "sink.jsonl"
        tasks = [
            {"value": i, "crash": i == 2, "marker": str(tmp_path / f"m{i}")}
            for i in range(5)
        ]
        executor = ExperimentExecutor(
            max_workers=3, retries=1, backoff=0.01, sink=sink, task_fn=flaky_task
        )
        outcomes = executor.run(tasks)
        assert [o.result for o in outcomes] == [0, 1, 2, 3, 4]
        assert outcomes[2].attempts == 2  # crashed once, retried
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        retries = [r for r in records if r["status"] == "retry"]
        assert len(retries) == 1
        assert "injected worker crash" in retries[0]["error"]
        assert sum(r["status"] == "ok" for r in records) == 5

    def test_exhausted_retries_reported_not_raised(self, tmp_path):
        sink = tmp_path / "sink.jsonl"
        tasks = [{"value": 0, "fail": True, "dir": str(tmp_path)},
                 {"value": 1, "dir": str(tmp_path)}]
        executor = ExperimentExecutor(
            max_workers=2, retries=2, backoff=0.01, sink=sink, task_fn=counting_task
        )
        outcomes = executor.run(tasks)
        assert outcomes[0].status == "error"
        assert outcomes[0].attempts == 3  # 1 try + 2 retries
        assert "injected failure" in outcomes[0].error
        assert outcomes[1].status == "ok"
        # 3 attempts actually executed for the failing task.
        assert len(list(tmp_path.glob("run-0-*"))) == 3
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        assert sum(r["status"] == "retry" for r in records) == 2
        assert sum(r["status"] == "error" for r in records) == 1

    def test_timeout_does_not_abort_sweep(self):
        tasks = [{"value": 0, "sleep": 10.0}] + [{"value": i} for i in range(1, 4)]
        executor = ExperimentExecutor(
            max_workers=2, timeout=0.5, retries=0, task_fn=sleepy_task
        )
        start = time.monotonic()
        outcomes = executor.run(tasks)
        elapsed = time.monotonic() - start
        assert outcomes[0].status == "timeout"
        assert "0.5" in outcomes[0].error
        assert [o.result for o in outcomes[1:]] == [1, 2, 3]
        assert elapsed < 5.0  # nowhere near the 10s sleep

    def test_serial_timeout(self):
        """The serial path enforces timeouts too (SIGALRM, main thread)."""
        executor = ExperimentExecutor(
            max_workers=1, timeout=0.3, retries=0, task_fn=sleepy_task
        )
        outcomes = executor.run([{"value": 0, "sleep": 10.0}, {"value": 1}])
        assert outcomes[0].status == "timeout"
        assert outcomes[1].status == "ok"

    def test_sweep_surfaces_failures(self, tiny_dataset):
        sweep = Sweep(small_config(), {"optimizer": ["sgd", "nonsense"]})
        with pytest.raises(ExecutorError, match="1/2"):
            sweep.run(dataset=tiny_dataset)


class TestResume:
    def test_resume_skips_completed(self, tmp_path):
        sink = tmp_path / "sink.jsonl"
        run_dir = tmp_path / "runs"
        run_dir.mkdir()
        tasks = [
            {"value": i, "fail": i == 1, "dir": str(run_dir)} for i in range(4)
        ]
        executor = ExperimentExecutor(
            max_workers=1, retries=0, sink=sink, task_fn=counting_task
        )
        first = executor.run(tasks)
        assert [o.status for o in first] == ["ok", "error", "ok", "ok"]

        # Second run with the failure "fixed": only task 1 re-executes.
        fixed = [dict(t, fail=False) for t in tasks]
        fixed[1]["fail"] = False
        second = executor.run(fixed, resume=True)
        statuses = [o.status for o in second]
        assert statuses == ["cached", "ok", "cached", "cached"]
        assert [o.result for o in second] == [0, 1, 2, 3]
        assert len(list(run_dir.glob("run-1-*"))) == 2  # failed + fixed
        assert len(list(run_dir.glob("run-0-*"))) == 1  # never re-ran

    def test_resume_ignores_truncated_trailing_line(self, tmp_path):
        sink_path = tmp_path / "sink.jsonl"
        executor = ExperimentExecutor(
            max_workers=1, sink=sink_path, task_fn=double_task
        )
        executor.run([{"value": 1}, {"value": 2}])
        # Simulate a crash mid-append: garbage half-record at the tail.
        with open(sink_path, "a", encoding="utf-8") as f:
            f.write('{"key": "half-written')
        outcomes = executor.run(
            [{"value": 1}, {"value": 2}, {"value": 3}], resume=True
        )
        assert [o.status for o in outcomes] == ["cached", "cached", "ok"]
        assert [o.result for o in outcomes] == [2, 4, 6]

    def test_resume_restores_experiment_results(self, tiny_dataset, tmp_path):
        sink = tmp_path / "sink.jsonl"
        configs = [small_config(seed=s) for s in (0, 1)]
        executor = ExperimentExecutor(max_workers=1, sink=sink)
        first = executor.run(configs, dataset=tiny_dataset)
        second = executor.run(configs, dataset=tiny_dataset, resume=True)
        assert [o.status for o in second] == ["cached", "cached"]
        for f, s in zip(first, second):
            assert_results_equal(f.result, s.result)


class TestJsonlSink:
    def test_completed_keeps_only_ok(self, tmp_path):
        sink = JsonlSink(tmp_path / "s.jsonl")
        sink.append({"key": "a", "status": "retry", "attempts": 1})
        sink.append({"key": "a", "status": "ok", "attempts": 2, "result": None})
        sink.append({"key": "b", "status": "error", "attempts": 1})
        done = sink.completed()
        assert set(done) == {"a"}
        assert done["a"]["attempts"] == 2

    def test_load_missing_file_is_empty(self, tmp_path):
        assert JsonlSink(tmp_path / "absent.jsonl").load() == []

    def test_task_key_stable_for_dicts(self):
        assert task_key({"b": 1, "a": 2}) == task_key({"a": 2, "b": 1})
        assert task_key({"a": 1}) != task_key({"a": 2})


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ExperimentExecutor(max_workers=0)
        with pytest.raises(ValueError):
            ExperimentExecutor(timeout=0)
        with pytest.raises(ValueError):
            ExperimentExecutor(retries=-1)
        with pytest.raises(ValueError):
            ExperimentExecutor(backoff=-0.1)
        with pytest.raises(ValueError):
            derive_task_seeds(0, -1)


class TestRunExperimentDeterminism:
    """Same seed ⇒ identical training record, for every paper method."""

    @pytest.mark.parametrize("method", PAPER_METHODS)
    def test_history_losses_identical(self, method, tiny_dataset):
        cfg = ExperimentConfig.paper_default(
            method,
            batch_size=1 if method == "alsh" else 10,
            hidden_layers=1,
            hidden_width=8,
            epochs=2,
            seed=3,
        )
        a = run_experiment(cfg, dataset=tiny_dataset)
        b = run_experiment(cfg, dataset=tiny_dataset)
        assert_results_equal(a, b)

    @pytest.mark.parametrize("method", PAPER_METHODS)
    def test_trainer_fit_losses_identical(self, method, tiny_dataset):
        def losses():
            net = MLP([tiny_dataset.input_dim, 8, tiny_dataset.n_classes], seed=0)
            trainer = make_trainer(method, net, lr=1e-3, seed=5)
            history = trainer.fit(
                tiny_dataset.x_train[:80], tiny_dataset.y_train[:80],
                epochs=2, batch_size=1 if method == "alsh" else 10,
            )
            return history.losses()

        np.testing.assert_array_equal(losses(), losses())


def checkpointed_slow_task(task, dataset):
    """Trains with checkpointing; the first attempt hangs after 2 epochs.

    ``fit(verbose=True)`` prints a line per trained epoch into
    ``epochs.log``, so a test can distinguish a retry that resumed from
    the checkpoint (epochs 0 1 2 3) from one that started over (0 1 0 1 2 3).
    """
    d = Path(task["dir"])
    d.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 6))
    y = rng.integers(0, 3, size=40)
    net = MLP([6, 8, 3], seed=0)
    trainer = make_trainer("standard", net, seed=1)
    first_attempt = not (d / "attempted").exists()
    (d / "attempted").touch()
    with open(d / "epochs.log", "a", encoding="utf-8") as log, redirect_stdout(log):
        history = trainer.fit(
            x, y, epochs=2 if first_attempt else 4, batch_size=10,
            verbose=True, checkpoint_every=1, checkpoint_dir=d,
        )
    if first_attempt:
        time.sleep(30)  # the per-task timeout fires here
    return len(history.epochs)


class TestRetryTimeouts:
    def test_timeouts_not_retried_by_default(self):
        executor = ExperimentExecutor(
            max_workers=1, timeout=0.3, retries=1, backoff=0.01,
            task_fn=sleepy_task,
        )
        outcomes = executor.run([{"value": 0, "sleep": 10.0}])
        assert outcomes[0].status == "timeout"
        assert outcomes[0].attempts == 1

    def test_timeouts_consume_retry_budget(self):
        executor = ExperimentExecutor(
            max_workers=1, timeout=0.3, retries=1, backoff=0.01,
            retry_timeouts=True, task_fn=sleepy_task,
        )
        outcomes = executor.run([{"value": 0, "sleep": 10.0}])
        assert outcomes[0].status == "timeout"
        assert outcomes[0].attempts == 2  # 1 try + 1 retry, then terminal

    def test_timed_out_task_resumes_from_checkpoint(self, tmp_path):
        """The ISSUE's acceptance scenario: a task killed by the per-task
        timeout mid-training finishes on its retry, resuming from the last
        checkpoint instead of epoch 0."""
        sink = tmp_path / "sink.jsonl"
        run_dir = tmp_path / "run"
        executor = ExperimentExecutor(
            max_workers=1, timeout=2.0, retries=1, backoff=0.01,
            retry_timeouts=True, sink=sink, task_fn=checkpointed_slow_task,
        )
        outcomes = executor.run([{"dir": str(run_dir)}])
        assert outcomes[0].status == "ok"
        assert outcomes[0].attempts == 2
        assert outcomes[0].result == 4  # resumed history spans all 4 epochs
        # Attempt 1 trained epochs 0-1; attempt 2 resumed at 2 — exactly
        # four epochs trained in all, none repeated.
        log = re.findall(r"\] epoch (\d+):", (run_dir / "epochs.log").read_text())
        assert log == ["0", "1", "2", "3"]
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        retries = [r for r in records if r["status"] == "retry"]
        assert len(retries) == 1
        assert "budget" in retries[0]["error"]


class TestResumeValidation:
    def test_resume_without_sink_rejected(self):
        executor = ExperimentExecutor(max_workers=1, task_fn=double_task)
        with pytest.raises(ValueError, match="resume=True requires a sink"):
            executor.run([{"value": 1}], resume=True)


class TestExperimentTask:
    def test_is_picklable(self, tmp_path):
        import pickle

        task_fn = ExperimentTask(
            checkpoint_dir=tmp_path, checkpoint_every=2, traced=True,
            probe_every=3,
        )
        clone = pickle.loads(pickle.dumps(task_fn))
        assert clone.checkpoint_dir == str(tmp_path)
        assert clone.checkpoint_every == 2
        assert clone.traced and clone.probe_every == 3

    def test_invalid_every(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            ExperimentTask(checkpoint_dir=tmp_path, checkpoint_every=0)
        with pytest.raises(ValueError, match="requires checkpoint_dir"):
            ExperimentTask(checkpoint_every=2)

    def test_probe_every_requires_traced(self):
        with pytest.raises(ValueError, match="requires traced"):
            ExperimentTask(probe_every=5)

    def test_is_the_default_task_fn(self):
        assert isinstance(ExperimentExecutor().task_fn, ExperimentTask)

    def test_checkpoints_under_config_tag(self, tiny_dataset, tmp_path):
        cfg = small_config(epochs=2)
        task_fn = ExperimentTask(checkpoint_dir=tmp_path)
        first = task_fn(cfg, tiny_dataset)
        ckpt = tmp_path / f"{cfg.checkpoint_tag()}.ckpt.npz"
        assert ckpt.exists()
        # Re-running the same config resumes a finished run: no new epochs,
        # same trained outcome.
        second = task_fn(cfg, tiny_dataset)
        assert_results_equal(first, second)

    def test_executor_integration(self, tiny_dataset, tmp_path):
        configs = [small_config(epochs=2, seed=s) for s in (0, 1)]
        executor = ExperimentExecutor(
            max_workers=1,
            sink=tmp_path / "sink.jsonl",
            task_fn=ExperimentTask(checkpoint_dir=tmp_path / "ckpts"),
        )
        outcomes = executor.run(configs, dataset=tiny_dataset)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        stored = sorted(p.name for p in (tmp_path / "ckpts").iterdir())
        assert stored == sorted(
            f"{c.checkpoint_tag()}.ckpt.npz" for c in configs
        )


class TestMetricsExposition:
    def test_prom_file_written_and_parses(self, tiny_dataset, tmp_path):
        """metrics_path turns a sweep into a textfile-collector target:
        the merged trace snapshot plus sweep progress gauges land in an
        atomically replaced .prom file."""
        from repro.obs.export import parse_prometheus

        prom = tmp_path / "metrics" / "sweep.prom"
        configs = [small_config(seed=s) for s in (0, 1)]
        executor = ExperimentExecutor(
            max_workers=1,
            task_fn=ExperimentTask(traced=True),
            metrics_path=prom,
        )
        outcomes = executor.run(configs, dataset=tiny_dataset)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert prom.exists()
        assert not prom.with_name(prom.name + ".tmp").exists()
        samples = parse_prometheus(prom.read_text(encoding="utf-8"))
        assert samples["repro_sweep_tasks"] == [("", 2.0)]
        assert samples["repro_sweep_done"] == [("", 2.0)]
        assert samples["repro_sweep_failed"] == [("", 0.0)]
        # merged trace counters ride along (both tasks trained 1 epoch)
        assert samples["repro_train_epochs_total"] == [("", 2.0)]

    def test_failures_counted_in_exposition(self, tmp_path):
        from repro.obs.export import parse_prometheus

        prom = tmp_path / "sweep.prom"
        tasks = [
            {"value": 1, "fail": False, "dir": str(tmp_path)},
            {"value": 2, "fail": True, "dir": str(tmp_path)},
        ]
        executor = ExperimentExecutor(
            max_workers=1, retries=0, task_fn=counting_task,
            metrics_path=prom,
        )
        outcomes = executor.run(tasks)
        assert [o.status for o in outcomes] == ["ok", "error"]
        samples = parse_prometheus(prom.read_text(encoding="utf-8"))
        assert samples["repro_sweep_done"] == [("", 2.0)]
        assert samples["repro_sweep_failed"] == [("", 1.0)]
