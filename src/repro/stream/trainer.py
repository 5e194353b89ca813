"""Online continual trainer for infinite drifting streams.

:class:`StreamTrainer` wraps a batch trainer (usually
:class:`~repro.core.alsh_approx.ALSHApproxTrainer`) and drives it from a
:class:`~repro.data.streams.DriftingStream` one minibatch at a time,
forever.  Three maintenance policies replace the offline ``fit`` loop's
assumptions:

* **Drift-triggered rebuilds** — instead of the paper's count-based
  100/1000 schedule, the inner ALSH trainer's table refresh runs every
  ``drift_check_every`` batches, and the trainer, built with a
  ``drift_threshold``, re-hashes only the touched columns that actually
  drifted past it.  Under never-ending drift the fixed schedule either
  wastes re-hashes (early phase) or lets tables go stale (late phase);
  the detector re-hashes exactly when the geometry moved.
* **Gauge-driven compaction** — the tables' tombstone garbage is read
  through ``MIPSIndex.garbage_fraction()`` (the ``lsh.garbage_frac``
  gauge) every ``compact_check_every`` batches and all tables are
  force-compacted when it exceeds ``compact_garbage_frac`` — a global
  policy on the observed signal.  The tables' own per-table threshold
  keeps the gauge at or below ``LSHIndex.compact_garbage_frac`` (0.5),
  so this policy fires only when set below that.
* **Continuous checkpointing** — every ``checkpoint_every`` batches the
  full mutable state (weights, optimizer slots, trainer RNG, hash
  tables, rebuild counters, drift references, the stream's own RNG and
  prototype positions, recorded series, probe state) is written through
  the :mod:`repro.nn.checkpoint` machinery, so a kill at any point
  resumes bitwise-identically mid-stream: the resumed trajectory is the
  uninterrupted one.

Everything is cadence-driven off the batch counter — never wall-clock —
which is what makes the resumed run reproduce the original byte for
byte (``tests/stream/test_stream_resume.py`` enforces this in the style
of the offline resume-equality suite).  Two things are excluded from
the identity on purpose: wall-clock throughput, and the flat backend's
physical tombstone layout — a restore re-packs the tables clean, which
is outside the backend's contract (compaction never affects candidate
sets), so post-resume ``lsh.garbage_frac`` readings start from zero
garbage while the canonical table contents stay bitwise identical.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.alsh_approx import ALSHApproxTrainer
from ..data.streams import DriftingStream
from ..lsh.rebuild import RebuildScheduler
from ..nn.checkpoint import (
    TrainerCheckpoint,
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
)
from ..nn.network import MLP
from ..obs import NULL_RECORDER, Recorder
from ..obs.counters import (
    HIST_STREAM_BATCH_SECONDS,
    LSH_GARBAGE_FRAC,
    STREAM_BATCHES,
    STREAM_CHECKPOINTS,
    STREAM_COMPACTIONS,
    STREAM_DRIFT_CHECKS,
    STREAM_EVALS,
    STREAM_REBUILDS,
    STREAM_SAMPLES,
)
from ..obs.probes import ProbeManager
from ..obs.timeseries import (
    SERIES_STREAM_ACCURACY,
    SERIES_STREAM_GARBAGE,
    SERIES_STREAM_LOSS,
)

__all__ = [
    "REBUILD_MODES",
    "StreamTrainer",
    "make_stream_trainer",
    "never_rebuild",
    "run_smoke",
]

REBUILD_MODES = ("drift", "count", "none")

#: a period no stream will ever reach — the scheduler handed to trainers
#: whose rebuilds the StreamTrainer drives itself.
_NEVER = 10**9


def never_rebuild() -> RebuildScheduler:
    """A count scheduler that never fires (drift/none rebuild modes)."""
    return RebuildScheduler(
        early_every=_NEVER, late_every=_NEVER, warmup_samples=0
    )


class StreamTrainer:
    """Continual trainer: an inner batch trainer driven by a stream.

    Parameters
    ----------
    trainer:
        The inner trainer.  Any :class:`~repro.core.base.Trainer` works
        for plain online training; drift-triggered rebuilds need an
        :class:`~repro.core.alsh_approx.ALSHApproxTrainer` built with a
        ``drift_threshold``, and gauge-driven compaction its ``indexes``.
    stream:
        The drifting minibatch source (must expose ``next_batch``,
        ``eval_batch`` and ``state_dict``/``load_state_dict``).
    rebuild:
        "drift" (default): the trainer's own count scheduler is replaced
        by :func:`never_rebuild` and its drift-gated refresh runs every
        ``drift_check_every`` batches; "count": the trainer's own
        scheduler stays in charge (the paper's policy); "none": no
        rebuilds ever (the decay baseline).
    drift_check_every:
        Cadence in batches of the drift-gated refresh ("drift" mode).
    compact_garbage_frac:
        Force-compact all tables when the worst index's garbage fraction
        exceeds this value; ``None`` disables gauge-driven compaction
        (the tables' own per-table threshold still applies).
    compact_check_every:
        Cadence (batches) of the garbage-gauge reading.
    eval_every, eval_samples:
        Held-out evaluation cadence on the *current* stream distribution
        (``None`` disables).  ``stream.eval_batch`` advances the stream
        RNG, so the eval cadence is part of the deterministic trajectory
        and must match across resumed runs.
    checkpoint_dir, checkpoint_every, checkpoint_tag:
        Continuous checkpointing; ``run(resume=True)`` picks up an
        existing checkpoint and continues bitwise-identically.
    probe_manager:
        Optional read-only :class:`~repro.obs.probes.ProbeManager` fired
        after every batch (its own cadence gates actual probe work).
        It is attached to the inner trainer, whose state capture
        carries it through checkpoints.
    """

    def __init__(
        self,
        trainer,
        stream: DriftingStream,
        rebuild: str = "drift",
        drift_check_every: int = 5,
        compact_garbage_frac: Optional[float] = 0.5,
        compact_check_every: int = 10,
        eval_every: Optional[int] = 50,
        eval_samples: int = 200,
        checkpoint_dir=None,
        checkpoint_every: int = 100,
        checkpoint_tag: Optional[str] = None,
        probe_manager: Optional[ProbeManager] = None,
    ):
        if rebuild not in REBUILD_MODES:
            raise ValueError(
                f"rebuild must be one of {REBUILD_MODES}, got {rebuild!r}"
            )
        if drift_check_every < 1:
            raise ValueError(
                f"drift_check_every must be at least 1, got {drift_check_every}"
            )
        if compact_check_every < 1:
            raise ValueError(
                f"compact_check_every must be at least 1, got {compact_check_every}"
            )
        if compact_garbage_frac is not None and compact_garbage_frac <= 0:
            raise ValueError(
                f"compact_garbage_frac must be positive, got {compact_garbage_frac}"
            )
        if eval_every is not None and eval_every < 1:
            raise ValueError(f"eval_every must be at least 1, got {eval_every}")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be at least 1, got {checkpoint_every}"
            )
        if rebuild == "drift" and getattr(trainer, "drift_threshold", None) is None:
            raise ValueError(
                "rebuild='drift' needs an ALSH trainer with per-layer hash "
                f"indexes built with a drift_threshold; {type(trainer).__name__} "
                "has none"
            )
        self.trainer = trainer
        self.stream = stream
        self.rebuild_mode = rebuild
        self.drift_check_every = int(drift_check_every)
        self.compact_garbage_frac = (
            None if compact_garbage_frac is None else float(compact_garbage_frac)
        )
        self.compact_check_every = int(compact_check_every)
        self.eval_every = None if eval_every is None else int(eval_every)
        self.eval_samples = int(eval_samples)
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_tag = checkpoint_tag
        if probe_manager is not None:
            trainer.attach_probes(probe_manager)
        self.obs: Recorder = trainer.obs

        if rebuild != "count" and getattr(trainer, "indexes", None):
            # The stream drives refreshes (or none); the trainer's own
            # count scheduler must never fire underneath it.
            trainer.rebuild = never_rebuild()

        self.batches_done = 0
        self.samples_done = 0
        self.rebuilds = 0  # drift-triggered refreshes that re-hashed columns
        self.compactions = 0  # gauge-forced table compactions
        self.checkpoints_written = 0
        self.last_loss: Optional[float] = None
        self.eval_history: List[List[float]] = []  # [batch, accuracy] pairs

    # ------------------------------------------------------------------
    # maintenance policies
    # ------------------------------------------------------------------
    def _drift_refresh(self) -> None:
        """Run the trainer's drift-gated refresh; count it if it re-hashed."""
        if self.obs.enabled:
            self.obs.add(STREAM_DRIFT_CHECKS)
        if self.trainer.refresh_tables():
            self.rebuilds += 1
            if self.obs.enabled:
                self.obs.add(STREAM_REBUILDS)

    def _rebuild_count(self) -> int:
        """Rebuilds so far: the trainer's scheduler firings in "count"
        mode, else the drift-triggered refreshes that re-hashed columns."""
        if self.rebuild_mode == "count" and hasattr(self.trainer, "rebuild"):
            return int(self.trainer.rebuild.rebuild_count)
        return self.rebuilds

    def garbage_fraction(self) -> float:
        """Worst garbage fraction across the trainer's hash indexes."""
        indexes = getattr(self.trainer, "indexes", None)
        if not indexes:
            return 0.0
        return max(ix.garbage_fraction() for ix in indexes)

    def _check_compaction(self) -> None:
        indexes = getattr(self.trainer, "indexes", None)
        if not indexes:
            return
        frac = self.garbage_fraction()
        if self.obs.enabled:
            self.obs.gauge(LSH_GARBAGE_FRAC, frac)
            self.obs.series(SERIES_STREAM_GARBAGE, self.batches_done, frac)
        if self.compact_garbage_frac is not None and frac > self.compact_garbage_frac:
            for ix in indexes:
                ix.compact()
            self.compactions += 1
            if self.obs.enabled:
                self.obs.add(STREAM_COMPACTIONS)

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(
        self,
        n_batches: int,
        resume: bool = True,
        verbose: bool = False,
        log_every: int = 200,
    ) -> Dict:
        """Consume the stream up to a total of ``n_batches`` batches.

        ``n_batches`` is the absolute stream position, not an increment:
        a run resumed from batch 70 with ``n_batches=100`` trains 30 more
        batches.  Returns a summary dict (throughput measured over the
        batches this call actually trained).
        """
        ckpt_file = None
        if self.checkpoint_dir is not None:
            directory = Path(self.checkpoint_dir)
            directory.mkdir(parents=True, exist_ok=True)
            tag = self.checkpoint_tag or f"stream-{self.trainer.name}"
            ckpt_file = checkpoint_path(directory, tag)
            if resume and ckpt_file.exists():
                self._restore(load_checkpoint(ckpt_file))
        probes = self.trainer._probes
        start = self.batches_done
        t0 = time.perf_counter()
        with self.trainer._backend_scope():
            for _ in range(start, int(n_batches)):
                x, y = self.stream.next_batch()
                tb = time.perf_counter()
                loss = self.trainer.train_batch(x, y)
                batch_seconds = time.perf_counter() - tb
                self.batches_done += 1
                self.samples_done += int(x.shape[0])
                self.last_loss = float(loss)
                if self.obs.enabled:
                    self.obs.add(STREAM_BATCHES)
                    self.obs.add(STREAM_SAMPLES, int(x.shape[0]))
                    self.obs.series(SERIES_STREAM_LOSS, self.batches_done, float(loss))
                    self.obs.histogram(HIST_STREAM_BATCH_SECONDS, batch_seconds)
                if probes is not None:
                    probes.on_batch(self.trainer, x, y)
                if (
                    self.rebuild_mode == "drift"
                    and self.batches_done % self.drift_check_every == 0
                ):
                    self._drift_refresh()
                if self.batches_done % self.compact_check_every == 0:
                    self._check_compaction()
                if (
                    self.eval_every is not None
                    and self.batches_done % self.eval_every == 0
                ):
                    xe, ye = self.stream.eval_batch(self.eval_samples)
                    acc = float(self.trainer.evaluate(xe, ye))
                    self.eval_history.append([self.batches_done, acc])
                    if self.obs.enabled:
                        self.obs.add(STREAM_EVALS)
                        self.obs.series(
                            SERIES_STREAM_ACCURACY, self.batches_done, acc
                        )
                if (
                    ckpt_file is not None
                    and self.batches_done % self.checkpoint_every == 0
                ):
                    self._save(ckpt_file)
                if verbose and self.batches_done % log_every == 0:
                    acc = (
                        self.eval_history[-1][1] if self.eval_history else float("nan")
                    )
                    print(
                        f"  batch {self.batches_done}: loss {loss:.4f}, "
                        f"acc {acc:.3f}, rebuilds {self._rebuild_count()}, "
                        f"compactions {self.compactions}"
                    )
        elapsed = time.perf_counter() - t0
        trained = self.batches_done - start
        if ckpt_file is not None and trained and self.batches_done % self.checkpoint_every:
            self._save(ckpt_file)  # final partial-period checkpoint
        return self.summary(trained=trained, elapsed=elapsed)

    def summary(self, trained: int = 0, elapsed: float = 0.0) -> Dict:
        """Run summary; throughput covers the batches of the last call."""
        samples = trained * self.stream.batch_size
        return {
            "batches": self.batches_done,
            "samples": self.samples_done,
            "trained_batches": trained,
            "elapsed_s": elapsed,
            "samples_per_s": samples / elapsed if elapsed > 0 else 0.0,
            "last_loss": self.last_loss,
            "rebuild_mode": self.rebuild_mode,
            "rebuilds": self._rebuild_count(),
            "compactions": self.compactions,
            "checkpoints": self.checkpoints_written,
            "garbage_frac": self.garbage_fraction(),
            "eval_history": [list(p) for p in self.eval_history],
        }

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    @property
    def _method(self) -> str:
        return f"stream:{self.trainer.name}"

    def _capture(self) -> TrainerCheckpoint:
        """Everything :meth:`run` needs to continue bitwise-identically."""
        payload, arrays = self.trainer._state()
        stream_meta, stream_arrays = self.stream.state_dict()
        for name, arr in stream_arrays.items():
            arrays[f"stream.{name}"] = arr
        payload["stream"] = {
            "state": stream_meta,
            "batches_done": int(self.batches_done),
            "samples_done": int(self.samples_done),
            "rebuilds": int(self.rebuilds),
            "compactions": int(self.compactions),
            "last_loss": self.last_loss,
            "eval_history": [list(p) for p in self.eval_history],
        }
        return TrainerCheckpoint(
            method=self._method,
            epoch=self.batches_done,
            stopped_early=False,
            payload=payload,
            arrays=arrays,
        )

    def _save(self, path) -> None:
        save_checkpoint(self._capture(), path)
        self.checkpoints_written += 1
        if self.obs.enabled:
            self.obs.add(STREAM_CHECKPOINTS)

    def _restore(self, ckpt: TrainerCheckpoint) -> None:
        """Apply a mid-stream checkpoint to freshly constructed objects.

        The StreamTrainer (and its inner trainer and stream) must have
        been constructed with the same configuration and seeds as the
        one that wrote the checkpoint; everything derived
        deterministically at construction (hash hyperplanes, never-fire
        scheduler) is reproduced, everything mutated by streaming is
        restored here.
        """
        if ckpt.method != self._method:
            raise ValueError(
                f"checkpoint holds {ckpt.method!r} state, "
                f"this stream trainer is {self._method!r}"
            )
        payload = ckpt.payload
        # Older checkpoints hold the drift references under the stream's
        # own "streamdrift{i}" key; the trainer reads them as "aux.drift{i}".
        arrays = {}
        for name, arr in ckpt.arrays.items():
            if name.startswith("streamdrift"):
                name = "aux.drift" + name[len("streamdrift"):]
            arrays[name] = arr
        self.trainer._load_state(payload, arrays)
        sp = payload["stream"]
        self.stream.load_state_dict(
            sp["state"],
            {
                "protos": ckpt.arrays["stream.protos"],
                "targets": ckpt.arrays["stream.targets"],
            },
        )
        self.batches_done = int(sp["batches_done"])
        self.samples_done = int(sp["samples_done"])
        self.rebuilds = int(sp["rebuilds"])
        self.compactions = int(sp["compactions"])
        self.last_loss = sp.get("last_loss")
        self.eval_history = [list(p) for p in sp.get("eval_history", [])]


def make_stream_trainer(
    dim: int = 32,
    n_classes: int = 8,
    width: int = 64,
    depth: int = 2,
    batch_size: int = 20,
    drift_per_batch: float = 0.01,
    rebuild: str = "drift",
    drift_threshold: float = 0.1,
    drift_check_every: int = 5,
    count_early_every: int = 100,
    count_late_every: int = 1000,
    count_warmup: int = 10_000,
    compact_garbage_frac: Optional[float] = 0.5,
    compact_check_every: int = 10,
    eval_every: Optional[int] = 50,
    eval_samples: int = 200,
    checkpoint_dir=None,
    checkpoint_every: int = 100,
    checkpoint_tag: Optional[str] = None,
    probe_manager: Optional[ProbeManager] = None,
    seed: int = 0,
    lr: float = 1e-3,
    n_tables: int = 5,
    recorder: Optional[Recorder] = None,
) -> StreamTrainer:
    """Build the standard streaming setup: ALSH trainer + drifting stream.

    The inner trainer runs in "union" batch mode (one vectorised step per
    stream minibatch — the throughput configuration); the stream is
    seeded at ``seed + 1`` so stream and trainer draw from independent
    generators.  ``rebuild`` selects the maintenance policy (see
    :class:`StreamTrainer`); in "count" mode the scheduler follows the
    paper's two-phase cadence with the given periods, and in "drift"
    mode the trainer is built with ``drift_threshold``.  Tables hash
    K = 6 bits (the paper's setting), and the stream adds Gaussian noise
    of scale 0.5 to every feature.
    """
    net = MLP([dim] + [width] * depth + [n_classes], seed=seed)
    trainer = ALSHApproxTrainer(
        net,
        lr=lr,
        optimizer="adam",
        n_bits=6,
        n_tables=n_tables,
        batch_mode="union",
        rebuild=RebuildScheduler(
            early_every=count_early_every,
            late_every=count_late_every,
            warmup_samples=count_warmup,
        ),
        drift_threshold=drift_threshold if rebuild == "drift" else None,
        seed=seed,
        recorder=recorder if recorder is not None else NULL_RECORDER,
    )
    stream = DriftingStream(
        dim,
        n_classes,
        batch_size=batch_size,
        drift_per_batch=drift_per_batch,
        noise=0.5,
        seed=seed + 1,
    )
    return StreamTrainer(
        trainer,
        stream,
        rebuild=rebuild,
        drift_check_every=drift_check_every,
        compact_garbage_frac=compact_garbage_frac,
        compact_check_every=compact_check_every,
        eval_every=eval_every,
        eval_samples=eval_samples,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        checkpoint_tag=checkpoint_tag,
        probe_manager=probe_manager,
    )


def _weights_digest(trainer) -> Tuple[bytes, ...]:
    return tuple(
        layer.W.tobytes() + layer.b.tobytes() for layer in trainer.net.layers
    )


def run_smoke(seed: int = 0, verbose: bool = True) -> int:
    """Short drifting-stream session with a kill-resume equality check.

    The CI gate: trains one uninterrupted session and one killed at the
    midpoint and resumed from its checkpoint, then asserts byte-identical
    weights, identical stream RNG state, and a bounded garbage fraction.
    Returns 0 on success (prints PASS/FAIL lines when verbose).
    """
    import tempfile

    total, kill_at = 80, 37
    kwargs = dict(
        dim=16,
        n_classes=4,
        width=32,
        depth=2,
        drift_per_batch=0.02,
        drift_threshold=0.02,
        drift_check_every=5,
        compact_garbage_frac=0.3,
        compact_check_every=5,
        eval_every=20,
        eval_samples=50,
        seed=seed,
    )
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        full = make_stream_trainer(**kwargs)
        full.run(total, resume=False)
        killed = make_stream_trainer(
            checkpoint_dir=tmp, checkpoint_every=10, **kwargs
        )
        killed.run(kill_at, resume=False)
        resumed = make_stream_trainer(
            checkpoint_dir=tmp, checkpoint_every=10, **kwargs
        )
        resumed.run(total, resume=True)
    if _weights_digest(full.trainer) != _weights_digest(resumed.trainer):
        failures.append("kill-resume weights differ from uninterrupted run")
    if (
        full.stream.rng.bit_generator.state
        != resumed.stream.rng.bit_generator.state
    ):
        failures.append("kill-resume stream RNG diverged")
    if full.eval_history != resumed.eval_history:
        failures.append("kill-resume eval history diverged")
    if full.garbage_fraction() > 0.9:
        failures.append(
            f"garbage fraction unbounded: {full.garbage_fraction():.3f}"
        )
    if not full.rebuilds:
        failures.append("no drift-triggered rebuilds fired")
    if verbose:
        for failure in failures:
            print(f"FAIL: {failure}")
        if not failures:
            acc = full.eval_history[-1][1] if full.eval_history else float("nan")
            print(
                f"stream smoke PASS: {total} batches, "
                f"{full.rebuilds} drift rebuilds, "
                f"{full.compactions} compactions, final acc {acc:.3f}, "
                "kill-resume bitwise identical"
            )
    return 1 if failures else 0
