"""Common trainer machinery shared by all five training methods (§8.3).

Every method — STANDARD, DROPOUT, ADAPTIVE-DROPOUT, ALSH-APPROX and
MC-APPROX — subclasses :class:`Trainer` and implements ``train_batch``.
The base class owns the epoch loop, loss-head plumbing, per-phase timing
(the paper's Tables 3–4 report per-epoch wall time, and §10.1 compares
feedforward vs backpropagation cost), validation tracking and the history
object the benches consume.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..backend import (
    InstrumentedBackend,
    active_backend,
    check_backend,
    use_backend,
)
from ..data.loader import BatchLoader
from ..nn.checkpoint import (
    TrainerCheckpoint,
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
)
from ..nn.losses import NLLLoss
from ..nn.metrics import accuracy
from ..nn.network import MLP
from ..nn.optim import BLOCK_BYTES, Optimizer, get_optimizer
from ..obs import NULL_RECORDER, Recorder
from ..obs.counters import (
    BACKEND_USED_PREFIX,
    FLOPS_ACTUAL,
    FLOPS_DENSE,
    MEM_GATHER_BYTES,
    MEM_SCATTER_BYTES,
    OPT_DENSE_UPDATES,
    OPT_LAZY_UPDATE_COLS,
    OPT_LAZY_UPDATE_HITS,
    TRAIN_BATCHES,
    TRAIN_EPOCHS,
    TRAIN_SAMPLES,
    gemm_flops,
)
from ..obs.probes import ProbeManager
from ..obs.timeseries import (
    SERIES_EPOCH_LOSS,
    SERIES_EPOCH_TIME,
    SERIES_VAL_ACCURACY,
)

__all__ = ["EpochStats", "History", "Trainer", "UFUNC_BUFFER"]

#: Elements in NumPy's ufunc buffer while a trainer works (NumPy's default
#: is 8192).  NumPy copies broadcast operands through the buffer once it
#: holds four or more rows of the output.  At 8192 that is every column
#: block ``a ⊗ δ`` of a 784- or 1000-row ``W``, and on NumPy 2.4 (2-vCPU
#: Xeon VM) a 1000×32 block took 49–56 µs with the copy against 13–19 µs
#: without it, for the same bytes.  For rows of 128–1000 elements a
#: buffer of 4× the row length was slow and 2× fast, so at 256 no row
#: longer than 64 elements is copied, while rows of 32, which gain from
#: the copy, still get it.  A multiple of 16, as NumPy 1.x requires.
UFUNC_BUFFER = 256


@contextmanager
def _work_scope(backend):
    """Pin NumPy's ufunc buffer to :data:`UFUNC_BUFFER` and activate
    ``backend`` (unless ``None``) for the ``with`` block; the caller's
    buffer size comes back on exit, also after an exception.  (NumPy
    1.x's ``errstate`` does not restore it, so it is reset by hand.)"""
    old = np.setbufsize(UFUNC_BUFFER)
    try:
        if backend is None:
            yield
        else:
            with use_backend(backend):
                yield
    finally:
        np.setbufsize(old)


def _column_blocks(n_cols: int, col_bytes: int, index):
    """The column blocks a blocked 2-D weight step walks: ``(block, cols)``.

    ``block`` slices at most :data:`~repro.nn.optim.BLOCK_BYTES` of the
    ``n_cols`` gradient columns of ``col_bytes`` each (one column at
    least); ``cols`` names the parameter columns it covers: ``block``
    itself for a dense step, the matching part of a contiguous ``index``
    slice, or the matching consecutive piece of ``index``'s sorted ids.
    """
    width = max(1, BLOCK_BYTES // col_bytes)
    for start in range(0, n_cols, width):
        block = slice(start, min(start + width, n_cols))
        if index is None:
            yield block, block
        elif isinstance(index, slice):
            first = index.start or 0
            yield block, slice(first + block.start, first + block.stop)
        else:
            yield block, index[block]


@dataclass
class EpochStats:
    """Bookkeeping for one training epoch."""

    epoch: int
    loss: float
    time: float
    forward_time: float
    backward_time: float
    val_accuracy: Optional[float] = None


@dataclass
class History:
    """Per-epoch training record returned by :meth:`Trainer.fit`."""

    method: str
    epochs: List[EpochStats] = field(default_factory=list)

    def losses(self) -> np.ndarray:
        """Mean training loss per epoch."""
        return np.array([e.loss for e in self.epochs])

    def epoch_times(self) -> np.ndarray:
        """Wall-clock seconds per epoch."""
        return np.array([e.time for e in self.epochs])

    def forward_times(self) -> np.ndarray:
        """Seconds spent in the feedforward phase per epoch."""
        return np.array([e.forward_time for e in self.epochs])

    def backward_times(self) -> np.ndarray:
        """Seconds spent in backpropagation (incl. updates) per epoch."""
        return np.array([e.backward_time for e in self.epochs])

    def val_accuracies(self) -> np.ndarray:
        """Validation accuracy per epoch (NaN where not evaluated)."""
        return np.array(
            [np.nan if e.val_accuracy is None else e.val_accuracy for e in self.epochs]
        )

    @property
    def total_time(self) -> float:
        """Total training wall time across epochs."""
        return float(sum(e.time for e in self.epochs))

    def to_dict(self) -> dict:
        """JSON-safe form (checkpoint support; floats round-trip exactly)."""
        return {
            "method": self.method,
            "epochs": [asdict(e) for e in self.epochs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "History":
        """Rebuild a history captured by :meth:`to_dict`."""
        return cls(
            method=payload["method"],
            epochs=[EpochStats(**e) for e in payload["epochs"]],
        )


class Trainer:
    """Base class: owns the network, optimiser, loss head and epoch loop.

    Subclasses implement :meth:`train_batch`, timing their own phases via
    :meth:`_time_forward` / :meth:`_time_backward` context helpers (simple
    accumulators — NumPy releases the GIL rarely enough here that
    ``perf_counter`` deltas are honest).

    Parameters
    ----------
    network:
        The :class:`~repro.nn.network.MLP` to train (modified in place).
        Its weight matrices are converted to column-major once, here, so
        every node's fan-in is one contiguous column; weights frozen
        read-only (a :class:`~repro.serve.ServableModel`'s) are refused
        with ``ValueError`` before anything is converted.
    lr:
        Learning rate (paper: 1e-3, or 1e-4 for MC-approx stochastic).
    optimizer:
        Name or instance (paper: SGD for most methods, Adam for ALSH).
    seed:
        Seed for the trainer's own sampling randomness.
    recorder:
        Observability sink (:mod:`repro.obs`).  Defaults to the shared
        :data:`~repro.obs.NULL_RECORDER`, under which every
        instrumentation site is a no-op and training is bitwise
        identical to the uninstrumented code (enforced by
        ``tests/obs/test_noop.py``).
    compute_backend:
        Per-trainer backend object, a :class:`~repro.backend.ComputeBackend`
        or a wrapper such as a timing proxy, active inside
        :meth:`_backend_scope`; anything else, a name included, is refused
        with ``TypeError``.  ``None`` (default) leaves the caller's
        active backend in force.  With a live recorder the backend is
        pinned at construction and wrapped in an
        :class:`~repro.backend.InstrumentedBackend`, so traced runs
        attribute wall-clock and FLOPs to individual kernels.
    """

    name = "base"

    def __init__(
        self,
        network: MLP,
        lr: float = 1e-3,
        optimizer="sgd",
        seed: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        compute_backend=None,
    ):
        if compute_backend is not None:
            check_backend(compute_backend, type(self).__name__)
        for i, layer in enumerate(network.layers):
            if not (layer.W.flags.writeable and layer.b.flags.writeable):
                raise ValueError(
                    f"layer {i} of the network is read-only (frozen for "
                    "serving?); train a fresh or reloaded copy instead"
                )
        for layer in network.layers:
            layer.W = np.asfortranarray(layer.W)
        self.net = network
        self.optimizer: Optimizer = get_optimizer(optimizer, lr)
        self.loss_fn = NLLLoss()
        self.rng = np.random.default_rng(seed)
        self.obs: Recorder = recorder if recorder is not None else NULL_RECORDER
        if self.obs.enabled:
            # Pin the backend at construction so per-kernel timings and
            # FLOP counters land in this trainer's recorder.
            if compute_backend is None:
                compute_backend = active_backend()
            compute_backend = InstrumentedBackend(compute_backend, self.obs)
        self.compute_backend = compute_backend
        self._probes: Optional[ProbeManager] = None
        self._t_fwd = 0.0
        self._t_bwd = 0.0

    # ------------------------------------------------------------------
    # compute-backend dispatch
    # ------------------------------------------------------------------
    def _backend_scope(self):
        """Context manager activating this trainer's backend (if any).

        Every method that does training or inference work runs inside it,
        so its kernel calls, which dispatch via
        :func:`repro.backend.active_backend`, see the per-trainer backend,
        and NumPy's ufunc buffer holds :data:`UFUNC_BUFFER` elements.
        """
        return _work_scope(self.compute_backend)

    # ------------------------------------------------------------------
    # quality probes (read-only; see repro.obs.probes)
    # ------------------------------------------------------------------
    def attach_probes(self, manager: ProbeManager) -> None:
        """Attach a probe manager; :meth:`fit` calls it after each batch.

        Probes are strictly read-only: they use the manager's private
        RNG stream, never the trainer's, so training with probes
        attached stays bitwise identical to an unprobed run
        (``tests/obs/test_noop.py``).  With the null recorder the
        per-batch hook is a single counter increment.
        """
        self._probes = manager

    def probe_scope(self):
        """Context manager activating the backend quality probes run on.

        That is this trainer's backend without its
        :class:`~repro.backend.InstrumentedBackend`, so a probe's own
        products land in no ``kernel.*`` counter or timing, under the
        ufunc buffer training uses.  The probe manager enters it only on
        batches where probes fire.
        """
        backend = self.compute_backend
        if isinstance(backend, InstrumentedBackend):
            backend = backend.inner
        return _work_scope(backend)

    def probe_exact_forward(self, x: np.ndarray) -> List[np.ndarray]:
        """Per-layer outputs of the *exact* forward pass (read-only).

        Returns ``[a^1, …, a^{L-1}, z^L]`` — hidden activations for
        every hidden layer and raw logits for the output layer (probes
        compare pre-log-softmax values so an all-zero approximate layer
        cannot produce infinities).
        """
        a = np.atleast_2d(np.asarray(x, dtype=float))
        layers = self.net.layers
        act = self.net.hidden_activation
        outs: List[np.ndarray] = []
        for i, layer in enumerate(layers):
            z = layer.forward(a)
            if i < len(layers) - 1:
                a = act.forward(z)
                outs.append(a)
            else:
                outs.append(z)
        return outs

    def probe_approx_forward(
        self, x: np.ndarray, rng: np.random.Generator
    ) -> List[np.ndarray]:
        """Per-layer outputs under this method's *approximate* forward.

        Layout matches :meth:`probe_exact_forward`.  All sampling draws
        from the caller-supplied ``rng`` (the probe stream) and no
        trainer state is mutated.  The base implementation is exact;
        sampling trainers override it.
        """
        return self.probe_exact_forward(x)

    # ------------------------------------------------------------------
    # phase timing helpers
    # ------------------------------------------------------------------
    class _PhaseTimer:
        __slots__ = ("_trainer", "_attr", "_phase", "_start")

        def __init__(self, trainer: "Trainer", attr: str, phase: str):
            self._trainer = trainer
            self._attr = attr
            self._phase = phase

        def __enter__(self):
            self._start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            elapsed = time.perf_counter() - self._start
            setattr(
                self._trainer,
                self._attr,
                getattr(self._trainer, self._attr) + elapsed,
            )
            self._trainer.obs.add_time(self._phase, elapsed)
            return False

    def _time_forward(self) -> "_PhaseTimer":
        """Context manager accumulating into the forward-phase clock."""
        return Trainer._PhaseTimer(self, "_t_fwd", "phase.forward")

    def _time_backward(self) -> "_PhaseTimer":
        """Context manager accumulating into the backward-phase clock."""
        return Trainer._PhaseTimer(self, "_t_bwd", "phase.backward")

    # ------------------------------------------------------------------
    # loss head and optimiser dispatch (counts dense vs lazy updates)
    # ------------------------------------------------------------------
    def _head(self, logits: np.ndarray, y) -> Tuple[float, np.ndarray]:
        """Fused log-softmax + NLL: the loss and its logit gradient."""
        loss = self.loss_fn.value(self.net.output_activation.forward(logits), y)
        return loss, NLLLoss.fused_logit_gradient(logits, y)

    def _count_update(self, param, index) -> None:
        """Record one dense update, or one lazy update of ``index``'s columns."""
        if index is None:
            self.obs.add(OPT_DENSE_UPDATES)
        else:
            self.obs.add(OPT_LAZY_UPDATE_HITS)
            if self.obs.enabled:
                if isinstance(index, slice):
                    cols = len(range(param.shape[-1])[index])
                else:
                    cols = int(np.size(index))
                self.obs.add(OPT_LAZY_UPDATE_COLS, cols)

    def _update(self, key, param, grad, index=None) -> None:
        """Apply an optimiser step, recording dense vs lazy-column hits.

        A 2-D (weight) gradient larger than one block goes to the
        optimiser in the blocks of :func:`_column_blocks`, so the rule's
        temporaries are block-sized; each block's step is the whole-array
        step of its columns, bit for bit, and the step counts as one
        update.  A gradient that fits one block goes whole, with its
        ``index``.
        """
        self._count_update(param, index)
        if grad.ndim == 1 or grad.nbytes <= BLOCK_BYTES:
            self.optimizer.update(key, param, grad, index=index)
            return
        col_bytes = grad.shape[0] * grad.itemsize
        for block, cols in _column_blocks(grad.shape[1], col_bytes, index):
            self.optimizer.update(key, param, grad[:, block], index=cols)

    def _update_weights(self, key, param, a_prev, delta, index=None) -> None:
        """Step ``param`` by its weight gradient ``a_prev.T @ delta``.

        ``index`` names the columns ``delta`` covers, as in :meth:`_update`.
        A batch's gradient is one GEMM, built whole and applied in column
        blocks by :meth:`_update`.  A single sample's gradient (1-D or
        one-row factors) is the outer product ``a ⊗ δ`` and is never
        built: each of the same column blocks is computed by ``grad_cols``
        on the 1-D factors as it is applied.  Every element still gets one
        multiply and the update arithmetic of the whole array, so the step
        is bitwise the materialised one; it counts as one update.
        """
        backend = active_backend()
        if a_prev.ndim == 2 and len(a_prev) > 1:
            self._update(key, param, backend.grad_cols(a_prev, delta), index)
            return
        a, delta = a_prev.reshape(-1), delta.reshape(-1)
        self._count_update(param, index)
        for block, cols in _column_blocks(delta.size, a.nbytes, index):
            self.optimizer.update(
                key, param, backend.grad_cols(a, delta[block]), index=cols
            )

    # ------------------------------------------------------------------
    # measured-FLOP accounting
    # ------------------------------------------------------------------
    def _record_step_flops(self, batch: int, kept: List[int]) -> None:
        """Record dense-equivalent vs actual GEMM FLOPs for one step.

        ``kept[i]`` is the number of output columns layer ``i`` actually
        computed (its full ``n_out`` for unsampled layers).  Per layer the
        step costs a forward product, a weight-gradient product and — for
        every layer but the first — a delta-propagation product; each
        scales linearly in the kept-column count.  GEMM work only, by the
        conventions of :mod:`repro.obs.counters`.
        """
        if not self.obs.enabled:
            return
        dense = actual = gather = scatter = 0
        for i, layer in enumerate(self.net.layers):
            k = int(kept[i])
            dense += gemm_flops(batch, layer.n_in, layer.n_out)  # forward
            actual += gemm_flops(batch, layer.n_in, k)
            dense += gemm_flops(layer.n_in, batch, layer.n_out)  # gW
            actual += gemm_flops(layer.n_in, batch, k)
            if i > 0:  # delta propagation
                dense += gemm_flops(batch, layer.n_out, layer.n_in)
                actual += gemm_flops(batch, k, layer.n_in)
            if k < layer.n_out:
                # Subset-kernel memory traffic (8-byte elements): the
                # active column block W[:, cols] is gathered for the
                # forward product and again for delta propagation, and
                # the sparse update scatters the same block back.  This
                # traffic is what flops.actual cannot see — the
                # FLOP-vs-wallclock gap trace-report surfaces.
                block = 8 * layer.n_in * k
                gather += 2 * block
                scatter += block
        self.obs.add(FLOPS_DENSE, dense)
        self.obs.add(FLOPS_ACTUAL, actual)
        if gather:
            self.obs.add(MEM_GATHER_BYTES, gather)
        if scatter:
            self.obs.add(MEM_SCATTER_BYTES, scatter)

    # ------------------------------------------------------------------
    # checkpoint capture / restore
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Method-specific auxiliary state as ``(meta, arrays)``.

        Subclasses with mutable state beyond the network, optimiser and
        rng (ALSH hash tables, rebuild counters, …) override this
        together with :meth:`restore_checkpoint_state`.  ``meta`` must be
        JSON-safe; ``arrays`` maps names to ndarrays.
        """
        return {}, {}

    def restore_checkpoint_state(
        self, meta: dict, arrays: Dict[str, np.ndarray]
    ) -> None:
        """Restore the state captured by :meth:`checkpoint_state`."""

    def _network_arrays(self) -> Dict[str, np.ndarray]:
        """The network's ``net.W{i}``/``net.b{i}`` checkpoint arrays.

        Archives keep each array's logical shape (``W`` is ``n_in ×
        n_out`` in either layout), so a checkpoint loads whichever
        layout wrote it.
        """
        arrays: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.net.layers):
            arrays[f"net.W{i}"] = layer.W
            arrays[f"net.b{i}"] = layer.b
        return arrays

    def _checked_network(self, arrays: Dict[str, np.ndarray]) -> list:
        """Copies of every layer's checkpointed ``(W, b)``, checked against
        the network, ``W`` column-major like training's."""
        weights = []
        for i, layer in enumerate(self.net.layers):
            try:
                w = arrays[f"net.W{i}"]
                b = arrays[f"net.b{i}"]
            except KeyError:
                raise ValueError(
                    f"checkpoint is missing arrays for layer {i}"
                ) from None
            if w.shape != layer.W.shape or b.shape != layer.b.shape:
                raise ValueError(
                    f"layer {i} shape mismatch: checkpoint {w.shape} vs "
                    f"network {layer.W.shape}"
                )
            weights.append((np.array(w, order="F"), b.copy()))
        return weights

    def _state(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """This trainer's mutable state as checkpoint ``(payload, arrays)``.

        Network, optimiser slots, RNG and the method's ``aux.*`` state,
        plus the observability carry: recorded series and histograms and
        the probe manager's state ride along, so a killed-and-resumed run
        (same recorder/probe configuration) reproduces the identical
        series.  :meth:`fit` checkpoints and stream checkpoints add their
        own loop state on top.
        """
        arrays = self._network_arrays()
        opt_meta, opt_arrays = self.optimizer.state_dict()
        arrays.update(opt_arrays)
        aux_meta, aux_arrays = self.checkpoint_state()
        for name, arr in aux_arrays.items():
            arrays[f"aux.{name}"] = arr
        payload = {
            "optimizer": opt_meta,
            "rng_state": self.rng.bit_generator.state,
            "aux": aux_meta,
        }
        obs_payload: dict = {}
        if self.obs.enabled and hasattr(self.obs, "series_snapshot"):
            obs_payload["series"] = self.obs.series_snapshot()
            obs_payload["histograms"] = self.obs.histograms_snapshot()
        if self._probes is not None:
            obs_payload["probes"] = self._probes.state_dict()
        if obs_payload:
            payload["obs"] = obs_payload
        return payload, arrays

    def _load_state(self, payload: dict, arrays: Dict[str, np.ndarray]) -> None:
        """Restore the state captured by :meth:`_state`.

        The trainer must have been constructed identically to the one
        that wrote the checkpoint (same config and seed) — everything the
        constructor derives deterministically (hash hyperplanes, standout
        parameters, …) is reproduced from the seed, while everything
        mutated by training is restored here.  Network arrays, optimiser
        rule and slots are all checked before anything changes.
        """
        weights = self._checked_network(arrays)
        self.optimizer.load_state_dict(payload["optimizer"], arrays)
        for layer, (w, b) in zip(self.net.layers, weights):
            layer.W, layer.b = w, b
        self.rng.bit_generator.state = payload["rng_state"]
        prefix = "aux."
        aux_arrays = {
            name[len(prefix):]: arr
            for name, arr in arrays.items()
            if name.startswith(prefix)
        }
        self.restore_checkpoint_state(payload.get("aux", {}), aux_arrays)
        obs_payload = payload.get("obs", {})
        if self.obs.enabled and hasattr(self.obs, "load_series"):
            if "series" in obs_payload:
                self.obs.load_series(obs_payload["series"])
            if "histograms" in obs_payload:
                self.obs.load_histograms(obs_payload["histograms"])
        if self._probes is not None and "probes" in obs_payload:
            self._probes.load_state_dict(obs_payload["probes"])

    def _capture_checkpoint(
        self,
        loader: BatchLoader,
        history: History,
        epoch: int,
        best_val: float,
        epochs_since_best: int,
        stopped_early: bool,
    ) -> TrainerCheckpoint:
        """Everything :meth:`fit` needs to continue bitwise-identically."""
        payload, arrays = self._state()
        payload["loader_rng_state"] = loader.rng.bit_generator.state
        payload["early_stopping"] = {
            "best_val": float(best_val),
            "epochs_since_best": int(epochs_since_best),
        }
        payload["history"] = history.to_dict()
        return TrainerCheckpoint(
            method=self.name,
            epoch=epoch,
            stopped_early=stopped_early,
            payload=payload,
            arrays=arrays,
        )

    def _restore_checkpoint(
        self, ckpt: TrainerCheckpoint, loader: BatchLoader, history: History
    ) -> Tuple[int, float, int]:
        """Apply a checkpoint; returns (start_epoch, best_val, since_best)."""
        if ckpt.method != self.name:
            raise ValueError(
                f"checkpoint holds {ckpt.method!r} trainer state, "
                f"this trainer is {self.name!r}"
            )
        payload = ckpt.payload
        self._load_state(payload, ckpt.arrays)
        loader.rng.bit_generator.state = payload["loader_rng_state"]
        history.epochs[:] = History.from_dict(payload["history"]).epochs
        es = payload["early_stopping"]
        return int(ckpt.epoch), float(es["best_val"]), int(es["epochs_since_best"])

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One optimisation step on a batch; returns the batch loss."""
        raise NotImplementedError

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        epochs: int = 1,
        batch_size: int = 20,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
        shuffle: bool = True,
        verbose: bool = False,
        early_stopping_patience: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_tag: Optional[str] = None,
        resume: bool = True,
    ) -> History:
        """Run the full training loop and return the epoch history.

        ``early_stopping_patience`` stops training once validation accuracy
        has not improved for that many consecutive epochs (requires a
        validation split) — the standard guard against the §9.3 small-batch
        overfitting regime.

        ``checkpoint_dir`` enables crash-safe training: every
        ``checkpoint_every`` epochs (default 1) the complete trainer state
        is written atomically to ``checkpoint_dir/<tag>.ckpt.npz`` (tag
        defaults to the method name).  When ``resume`` is true and that
        file already exists, training continues from it — and is bitwise
        identical to an uninterrupted run with the same seed.  The caller
        must reconstruct the trainer with the same configuration and seed;
        a checkpoint from a different method or architecture raises
        ``ValueError``.
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        if checkpoint_every is not None and checkpoint_dir is None:
            raise ValueError(
                "checkpoint_every requires checkpoint_dir"
            )
        ckpt_file: Optional[Path] = None
        if checkpoint_dir is not None:
            if checkpoint_every is None:
                checkpoint_every = 1
            if checkpoint_every <= 0:
                raise ValueError(
                    f"checkpoint_every must be positive, got {checkpoint_every}"
                )
            ckpt_file = checkpoint_path(
                checkpoint_dir, checkpoint_tag or self.name
            )
            ckpt_file.parent.mkdir(parents=True, exist_ok=True)
        if early_stopping_patience is not None:
            if early_stopping_patience <= 0:
                raise ValueError(
                    f"early_stopping_patience must be positive, "
                    f"got {early_stopping_patience}"
                )
            if x_val is None or y_val is None or not len(y_val):
                raise ValueError(
                    "early stopping requires a validation split"
                )
        loader = BatchLoader(
            x_train,
            y_train,
            batch_size=batch_size,
            shuffle=shuffle,
            seed=int(self.rng.integers(2**31)),
        )
        history = History(method=self.name)
        best_val = -np.inf
        epochs_since_best = 0
        start_epoch = 0
        if ckpt_file is not None and resume and ckpt_file.exists():
            ckpt = load_checkpoint(ckpt_file)
            done, best_val, epochs_since_best = self._restore_checkpoint(
                ckpt, loader, history
            )
            start_epoch = done + 1
            if verbose:
                print(
                    f"[{self.name}] resuming from {ckpt_file} "
                    f"(epoch {start_epoch})"
                )
            if ckpt.stopped_early or start_epoch >= epochs:
                return history
        with self._backend_scope(), self.obs.span("fit"):
            if self.obs.enabled:
                self.obs.add(BACKEND_USED_PREFIX + active_backend().name)
            for epoch in range(start_epoch, epochs):
                self._t_fwd = 0.0
                self._t_bwd = 0.0
                start = time.perf_counter()
                losses = []
                with self.obs.span("epoch"):
                    if self._probes is None:
                        for xb, yb in loader:
                            losses.append(self.train_batch(xb, yb))
                    else:
                        for xb, yb in loader:
                            losses.append(self.train_batch(xb, yb))
                            self._probes.on_batch(self, xb, yb)
                elapsed = time.perf_counter() - start
                self.obs.add(TRAIN_EPOCHS)
                if self.obs.enabled:
                    self.obs.add(TRAIN_BATCHES, len(losses))
                    self.obs.add(TRAIN_SAMPLES, int(len(y_train)))
                val_acc = None
                if x_val is not None and y_val is not None and len(y_val):
                    with self.obs.span("validate"):
                        val_acc = self.evaluate(x_val, y_val)
                stats = EpochStats(
                    epoch=epoch,
                    loss=float(np.mean(losses)),
                    time=elapsed,
                    forward_time=self._t_fwd,
                    backward_time=self._t_bwd,
                    val_accuracy=val_acc,
                )
                history.epochs.append(stats)
                if self.obs.enabled:
                    self.obs.series(SERIES_EPOCH_LOSS, epoch, stats.loss)
                    self.obs.series(SERIES_EPOCH_TIME, epoch, elapsed)
                    if val_acc is not None:
                        self.obs.series(SERIES_VAL_ACCURACY, epoch, val_acc)
                if verbose:
                    acc_str = (
                        "" if val_acc is None else f", val_acc={val_acc:.4f}"
                    )
                    print(
                        f"[{self.name}] epoch {epoch}: loss={stats.loss:.4f}, "
                        f"time={elapsed:.3f}s{acc_str}"
                    )
                stop = False
                if early_stopping_patience is not None:
                    if val_acc is not None and val_acc > best_val:
                        best_val = val_acc
                        epochs_since_best = 0
                    else:
                        epochs_since_best += 1
                        if epochs_since_best >= early_stopping_patience:
                            stop = True
                if ckpt_file is not None and (
                    stop
                    or epoch + 1 == epochs
                    or (epoch + 1) % checkpoint_every == 0
                ):
                    save_checkpoint(
                        self._capture_checkpoint(
                            loader,
                            history,
                            epoch,
                            best_val,
                            epochs_since_best,
                            stopped_early=stop,
                        ),
                        ckpt_file,
                    )
                if stop:
                    break
        return history

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions under this method's inference mode.

        The default is the exact forward pass; methods whose *inference*
        also samples (ALSH-approx) override this.
        """
        with self._backend_scope():
            return self.net.predict(x)

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Accuracy of :meth:`predict` on the given split."""
        return accuracy(y, self.predict(x))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(net={self.net!r})"
