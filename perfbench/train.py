"""train-minibatch and train-stochastic: paper-shape training throughput.

The network is 784 -> 1000 x 3 -> 10 on the synthetic ``mnist`` spec with
the paper's §8.4 settings (``PAPER_SETTINGS`` in ``benchmarks/conftest.py``).
Each method trains through the public ``Trainer.fit`` on consecutive
chunks of the training split, so the History phase clocks and the
trainer's own backend scope are the program's.

* untraced (``--trace 0``): every method gets an equal share of the time
  budget; throughput and median step time per method are combined by
  geometric mean.
* traced (``--trace 1``): a fixed number of steps per method, run once
  untraced and once with an ``InMemoryRecorder`` and the benchmark's
  wrappers from the same seed.  The two runs must produce identical
  per-step losses and weights.
"""

from __future__ import annotations

import importlib.util
import math
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import repro.core.mc_approx as mc_module
from repro import MLP, load_benchmark, make_trainer
from repro.backend import default_backend_name, get_backend
from repro.obs import InMemoryRecorder

from .calibrate import Calibrator, normalize
from .layers import Tally, install_lsh, install_optimizer, shared_metrics
from .outcome import Outcome, counters, median_setup, weights_digest
from .spans import (
    SpanClock,
    StepLog,
    TimingBackend,
    abba,
    log_steps,
    patched,
    trace_steps,
)
from .stats import geomean, require_percentile

__all__ = ["REGIMES", "run_untraced", "run_traced", "MethodRun"]

HIDDEN = (1000, 1000, 1000)
DATA_SCALE = 0.05  # 2750 train / 500 test rows of the synthetic mnist spec
CHUNK_STEPS = 5  # steps per Trainer.fit call
WARMUP_STEPS = 2  # allocates optimizer state and scratch buffers
SETUP_REPEATS = 5
MIN_STEPS = 20  # a median needs ten samples beyond it
TRACED_STEPS = 100  # a p90 needs ten samples beyond it

#: workload -> (batch size, method -> PAPER_SETTINGS key).  Dropout and
#: adaptive dropout have only stochastic settings; top-k uses ALSH's
#: (Adam, lr 1e-3).
REGIMES: Dict[str, Tuple[int, Dict[str, str]]] = {
    "train-minibatch": (20, {
        "standard": "standard^M",
        "dropout": "dropout^S",
        "adaptive_dropout": "adaptive_dropout^S",
        "mc": "mc^M",
    }),
    "train-stochastic": (1, {
        "standard": "standard^S",
        "dropout": "dropout^S",
        "adaptive_dropout": "adaptive_dropout^S",
        "mc": "mc^S",
        "alsh": "alsh",
        "topk": "alsh",
    }),
}

SAMPLERS = ("bernoulli_probabilities", "bernoulli_sample")


def paper_settings() -> dict:
    """``PAPER_SETTINGS`` from ``benchmarks/conftest.py``."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("_paper_settings", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PAPER_SETTINGS


def load_data(seed: int):
    return load_benchmark("mnist", scale=DATA_SCALE, seed=seed)


class MethodRun:
    """One method's trainer and its cursor into the training split."""

    def __init__(self, method, setting, data, batch, seed, **trainer_kwargs):
        _, _, lr, kwargs = setting
        net = MLP([data.input_dim, *HIDDEN, data.n_classes], seed=seed)
        self.trainer = make_trainer(
            method, net, lr=lr, seed=seed + 1, **kwargs, **trainer_kwargs
        )
        self.data = data
        self.batch = batch
        self.cursor = 0
        self.histories = []

    def fit_chunk(self, steps: int) -> None:
        n = steps * self.batch
        idx = np.arange(self.cursor, self.cursor + n) % len(self.data.y_train)
        self.cursor += n
        self.histories.append(self.trainer.fit(
            self.data.x_train[idx],
            self.data.y_train[idx],
            epochs=1,
            batch_size=self.batch,
            shuffle=False,
        ))

    def fit_steps(self, steps: int) -> float:
        """Train ``steps`` steps in chunks; returns the wall seconds."""
        start = time.perf_counter()
        for _ in range(steps // CHUNK_STEPS):
            self.fit_chunk(CHUNK_STEPS)
        return time.perf_counter() - start


def _check_losses(out: Outcome, method: str, losses: List[float]) -> None:
    bad = sum(not math.isfinite(loss) for loss in losses)
    out.ops(len(losses), bad, f"{method}: non-finite training loss")


def run_untraced(workload: str, seed: int, seconds: float, out: Outcome) -> None:
    """Time-budgeted training of every method; end-to-end metrics."""
    batch, methods = REGIMES[workload]
    settings = paper_settings()
    setup_cal, cal = Calibrator(), Calibrator()
    calibrate = setup_cal.slices_before_build
    setup_s, data = median_setup(lambda: load_data(seed), SETUP_REPEATS, between=calibrate)
    budget = seconds / len(methods)
    rates, medians = [], []
    for method, key in methods.items():

        def build():
            run = MethodRun(method, settings[key], data, batch, seed)
            run.fit_chunk(WARMUP_STEPS)
            return run

        build_s, run = median_setup(build, SETUP_REPEATS, between=calibrate)
        setup_s += build_s
        cal.run_slice()
        log = StepLog()
        log_steps(run.trainer, "train_batch", log)
        elapsed = 0.0
        while elapsed < budget or len(log.duration_ns) < MIN_STEPS:
            elapsed += run.fit_steps(CHUNK_STEPS)
            cal.tick()
        _check_losses(out, method, log.results)
        steps = len(log.duration_ns)
        rates.append(steps * batch / elapsed)
        medians.append(require_percentile(log.durations_ms(), 50, method))
        print(
            f"  {method}: {steps} steps in {elapsed:.2f}s, "
            f"{rates[-1]:.1f} samples/s, median step {medians[-1]:.2f} ms (raw)"
        )
        del run
    normalize(out, setup_cal, cal, setup_s, geomean(rates), geomean(medians))


def _traced_segment(method, setting, data, batch, seed):
    """Build, warm up and wrap a traced trainer; returns its parts."""
    recorder = InMemoryRecorder()
    clock = SpanClock()
    backend = TimingBackend(get_backend(default_backend_name()), clock)
    run = MethodRun(
        method, setting, data, batch, seed,
        recorder=recorder, compute_backend=backend,
    )
    run.fit_chunk(WARMUP_STEPS)
    clock.reset()
    before = counters(recorder)
    log = StepLog()
    tally = Tally()
    trace_steps(run.trainer, "train_batch", log, clock, "core.train_batch")
    install_optimizer(run.trainer, clock)
    for index in getattr(run.trainer, "indexes", ()):
        install_lsh(index, clock, tally)
    return run, recorder, clock, before, log, tally


def run_traced(workload: str, seed: int, out: Outcome) -> None:
    """Fixed steps per method, untraced and traced; per-layer metrics.

    The untraced and traced trainers of a method are built from the same
    seed and advanced in ABBA order (see :func:`abba`).  Both pin the same
    raw backend (the traced one behind the timing proxy), so they differ
    only by the tracing.
    """
    batch, methods = REGIMES[workload]
    settings = paper_settings()
    raw = get_backend(default_backend_name())
    values = out.values
    start = time.perf_counter()
    data = load_data(seed)
    values["setup.data_s"] = time.perf_counter() - start
    model_s = warmup_s = wall_untraced = wall_traced = 0.0
    lsh_wall = lsh_batches = 0
    accuracies = []
    merged_clock = SpanClock()
    merged_counts: Dict[str, float] = {}
    merged_tally = Tally()
    for method, key in methods.items():
        t0 = time.perf_counter()
        plain_run = MethodRun(
            method, settings[key], data, batch, seed, compute_backend=raw
        )
        t1 = time.perf_counter()
        plain_run.fit_chunk(WARMUP_STEPS)
        model_s += t1 - t0
        warmup_s += time.perf_counter() - t1
        plain = StepLog()
        log_steps(plain_run.trainer, "train_batch", plain)
        run, recorder, clock, before, log, tally = _traced_segment(
            method, settings[key], data, batch, seed
        )
        first = len(run.histories)
        wall_a = wall_b = 0.0
        for traced in abba(TRACED_STEPS // CHUNK_STEPS):
            if traced:
                with patched(mc_module, SAMPLERS, clock, "approx"):
                    wall_b += run.fit_steps(CHUNK_STEPS)
            else:
                wall_a += plain_run.fit_steps(CHUNK_STEPS)
        after = counters(recorder)
        counts = {k: after[k] - before.get(k, 0) for k in after}
        accuracies.append(plain_run.trainer.evaluate(data.x_test, data.y_test))
        digest_a = weights_digest(plain_run.trainer.net)
        del plain_run

        _check_losses(out, method, plain.results)
        out.check(
            plain.results == log.results,
            f"{method}: traced and untraced per-step losses differ",
        )
        out.check(
            weights_digest(run.trainer.net) == digest_a,
            f"{method}: traced and untraced weights differ",
        )
        out.check(
            all(sum(s.values()) <= 1 + 1e-9 for s in log.shares),
            f"{method}: per-step layer shares sum above 1",
        )

        histories = run.histories[first:]
        fwd = sum(h.forward_times().sum() for h in histories)
        bwd = sum(h.backward_times().sum() for h in histories)
        step_ms = log.durations_ms()
        samples = TRACED_STEPS * batch
        values[f"{method}.samples_per_s"] = samples / wall_a
        values[f"core.{method}.step_ms.p50"] = require_percentile(step_ms, 50, method)
        values[f"core.{method}.step_ms.p90"] = require_percentile(step_ms, 90, method)
        values[f"core.{method}.self_share"] = clock.self_s("core") / wall_b
        values[f"core.{method}.backward_share"] = bwd / (fwd + bwd)
        values[f"backend.{method}.share"] = clock.self_s("backend") / wall_b
        values[f"optim.{method}.share"] = clock.self_s("optim") / wall_b
        values[f"flops.{method}.actual_over_dense"] = (
            counts["flops.actual"] / counts["flops.dense"]
        )
        values[f"mem.{method}.gather_bytes_per_sample"] = (
            counts.get("mem.gather_bytes", 0) / samples
        )
        if method == "mc":
            values["approx.mc.share"] = clock.self_s("approx") / wall_b
        if tally:
            lsh_wall += wall_b
            lsh_batches += TRACED_STEPS
        print(
            f"  {method}: {values[f'{method}.samples_per_s']:.1f} samples/s "
            f"untraced, traced shares core "
            f"{values[f'core.{method}.self_share']:.2f} backend "
            f"{values[f'backend.{method}.share']:.2f} optim "
            f"{values[f'optim.{method}.share']:.2f} approx "
            f"{clock.self_s('approx') / wall_b:.2f} lsh "
            f"{clock.self_s('lsh') / wall_b:.2f}"
        )
        wall_untraced += wall_a
        wall_traced += wall_b
        merged_clock.merge(clock)
        for k, v in counts.items():
            merged_counts[k] = merged_counts.get(k, 0) + v
        for k, v in tally.items():
            merged_tally.bump(k, v)
        del run

    values.update(shared_metrics(merged_clock, merged_counts, merged_tally, lsh_batches))
    if lsh_wall:
        values["lsh.share"] = merged_clock.self_s("lsh") / lsh_wall
    values["setup.model_s"] = model_s
    values["setup.warmup_s"] = warmup_s
    values["accuracy"] = float(np.mean(accuracies))
    values["obs.trace_overhead"] = wall_traced / wall_untraced - 1
