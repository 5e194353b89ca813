"""Experiment runner: config in, measured result out.

This is the function behind every table and figure bench: build the
network for the config's depth/width, train with the configured method,
then evaluate accuracy, confusion matrix and the §10.3 prediction-collapse
diagnostics on the test split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..core.base import History
from ..core.registry import make_trainer
from ..data.benchmarks import load_benchmark
from ..data.datasets import Dataset
from ..memsim.profile import estimate_training_memory
from ..nn.metrics import (
    confusion_matrix,
    distinct_predictions,
    prediction_entropy,
)
from ..nn.network import MLP
from ..obs import Recorder
from .config import ExperimentConfig

__all__ = ["ExperimentResult", "build_network", "run_experiment"]


@dataclass
class ExperimentResult:
    """Everything measured from one training run."""

    config: ExperimentConfig
    history: History
    test_accuracy: float
    confusion: np.ndarray
    pred_entropy: float
    n_distinct_predictions: int
    train_time: float
    memory_breakdown: Dict[str, int]
    #: recorder snapshot (counters/gauges/timings/spans) when the run was
    #: traced; None for untraced runs.
    trace: Optional[dict] = None

    @property
    def time_per_epoch(self) -> float:
        """Mean wall-clock seconds per training epoch."""
        return self.train_time / max(len(self.history.epochs), 1)

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.config.label()} on {self.config.dataset} "
            f"({self.config.hidden_layers}x{self.config.hidden_width}): "
            f"acc={self.test_accuracy:.4f}, "
            f"time/epoch={self.time_per_epoch:.3f}s, "
            f"pred_entropy={self.pred_entropy:.3f}"
        )


def build_network(config: ExperimentConfig, dataset: Dataset) -> MLP:
    """The MLP for a config: input → hidden_layers × width → classes."""
    sizes = (
        [dataset.input_dim]
        + [config.hidden_width] * config.hidden_layers
        + [dataset.n_classes]
    )
    return MLP(sizes, seed=config.seed)


def run_experiment(
    config: ExperimentConfig,
    dataset: Optional[Dataset] = None,
    recorder: Optional[Recorder] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    probe_every: Optional[int] = None,
    network: Optional[MLP] = None,
) -> ExperimentResult:
    """Train per the config and evaluate on the test split.

    ``dataset`` may be passed in to share one generated dataset across many
    configs (the benches do this); otherwise it is generated from the
    config's ``dataset``/``data_scale``/``seed``.

    ``network`` trains a caller-built network in place (``run
    --save-model`` saves exactly the weights it reports on); it defaults
    to :func:`build_network` of the config.

    ``recorder`` threads an observability sink (:mod:`repro.obs`) through
    the trainer; its snapshot is attached to the result as ``trace``.
    Without one, training runs with the no-op recorder and ``trace`` is
    None.

    ``probe_every`` attaches the default quality probes
    (:mod:`repro.obs.probes`) at that batch cadence.  Probes are
    read-only — they never change what is trained — and only do work
    when the recorder is enabled.  Their RNG stream is derived from the
    config seed, so probe series are reproducible and survive
    checkpoint/resume.

    ``checkpoint_dir`` enables crash-safe training (see
    :meth:`repro.core.base.Trainer.fit`): the trainer state is written
    every ``checkpoint_every`` epochs under the config's
    :meth:`~repro.harness.config.ExperimentConfig.checkpoint_tag`, and an
    interrupted run invoked again with the same config resumes from the
    last checkpoint, bitwise-identically.  ``train_time`` then covers only
    the epochs actually run in this invocation.
    """
    if dataset is None:
        dataset = load_benchmark(config.dataset, scale=config.data_scale, seed=config.seed)
    trainer = make_trainer(
        config.method,
        network if network is not None else build_network(config, dataset),
        lr=config.lr,
        optimizer=config.optimizer,
        seed=config.seed,
        recorder=recorder,
        **config.method_kwargs,
    )
    if probe_every is not None:
        from ..obs.probes import ProbeManager, default_probes

        probe_seed = np.random.SeedSequence(
            [config.seed if config.seed is not None else 0, 0x0B5]
        )
        trainer.attach_probes(
            ProbeManager(
                default_probes(), probe_every=probe_every, seed=probe_seed
            )
        )
    start = time.perf_counter()
    history = trainer.fit(
        dataset.x_train,
        dataset.y_train,
        epochs=config.epochs,
        batch_size=config.batch_size,
        x_val=dataset.x_val if dataset.n_val else None,
        y_val=dataset.y_val if dataset.n_val else None,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        checkpoint_tag=(
            config.checkpoint_tag() if checkpoint_dir is not None else None
        ),
    )
    train_time = time.perf_counter() - start

    preds = trainer.predict(dataset.x_test)
    acc = float((preds == dataset.y_test).mean())
    cm = confusion_matrix(dataset.y_test, preds, dataset.n_classes)
    memory = estimate_training_memory(
        config.method,
        [dataset.input_dim]
        + [config.hidden_width] * config.hidden_layers
        + [dataset.n_classes],
        batch=config.batch_size,
        optimizer=config.optimizer,
    )
    return ExperimentResult(
        config=config,
        history=history,
        test_accuracy=acc,
        confusion=cm,
        pred_entropy=prediction_entropy(preds, dataset.n_classes),
        n_distinct_predictions=distinct_predictions(preds),
        train_time=train_time,
        memory_breakdown=memory,
        trace=recorder.snapshot() if recorder is not None and recorder.enabled else None,
    )
