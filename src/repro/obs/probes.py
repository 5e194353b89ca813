"""Quality probes: read-only measurements of approximation drift.

The PR 3 recorder counts *work* (FLOPs, candidates, rebuilds); probes
measure *quality* — how far a sampling-based trainer's forward pass has
drifted from the exact computation, how well LSH candidate sets recover
the true top-k neurons, and how the MC estimator's bias/variance evolve
as the weights move.  Theorem 7.2 says forward error compounds
exponentially with depth; probes turn the trace into an empirical check
of that bound.

Three invariants, enforced by ``tests/obs/test_noop.py``:

* **Read-only.**  A probe never mutates trainer state and never touches
  the trainer's RNG — all probe randomness comes from the
  :class:`ProbeManager`'s private generator, and probe-time LSH lookups
  go through the counters-off ``query(..., record=False)`` path.  The
  manager runs probes inside the trainer's ``probe_scope()``, its
  backend without instrumentation, so their products add to no
  ``kernel.*`` counter.  Training with probes attached is bitwise
  identical to training without.
* **Cadence-bounded.**  Probes fire every ``probe_every`` batches; a
  probe whose single invocation exceeds the manager's wall-clock budget
  is disabled for the rest of the run (recorded under
  ``probe.budget_disabled``) so a pathological probe cannot dominate
  training time.
* **Deterministic series.**  Probe measurements are recorded as
  batch-indexed series (:mod:`repro.obs.timeseries`), keyed by the
  global batch step — never wall-clock — so a killed-and-resumed run
  reproduces them exactly (the manager's step counter and RNG state
  ride in the trainer checkpoint).

Layering note: ``repro.obs`` modules are import-time dependency-free
from the rest of ``repro``.  Probes are the sanctioned boundary — they
duck-type the trainer object (``probe_exact_forward`` /
``probe_approx_forward`` / ``probe_scope`` / ``indexes`` /
``_node_budget``) and defer the one import they need
(:func:`repro.approx.bernoulli.estimator_moments`) to call time, so
importing ``repro.obs`` still pulls in nothing else.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Iterable, List, Optional

import numpy as np

from .counters import (
    LSH_GARBAGE_FRAC,
    PROBE_DISABLED,
    PROBE_POINTS,
    PROBE_RUNS,
    PROBE_SKIPPED,
)
from .recorder import Recorder
from .timeseries import (
    SERIES_FWD_COMPOUND,
    SERIES_FWD_REL_ERROR,
    SERIES_LSH_PRECISION,
    SERIES_LSH_RECALL,
    SERIES_MC_EXPECTED_ERROR,
    SERIES_MC_REL_BIAS,
    SERIES_MC_REL_STD,
    layer_series,
)

__all__ = [
    "Probe",
    "ForwardErrorProbe",
    "LSHRecallProbe",
    "MCEstimatorProbe",
    "ProbeManager",
    "default_probes",
    "DEFAULT_PROBE_EVERY",
    "DEFAULT_PROBE_BUDGET",
]

#: default cadence — probe once every N batches.  Chosen so the default
#: configuration stays under the ≤5 % overhead gate of
#: ``python -m repro bench obs`` at paper-shape networks.
DEFAULT_PROBE_EVERY = 50

#: default per-invocation wall-clock budget (seconds).  ``None`` in
#: tests that need budget decisions out of the picture.
DEFAULT_PROBE_BUDGET = 0.25


class Probe:
    """One read-only measurement.  Subclasses override all three hooks."""

    #: stable identifier; timings land under ``probe.<name>``.
    name = "probe"

    def supports(self, trainer) -> bool:
        """Whether this probe applies to the given trainer (duck-typed)."""
        return True

    def run(
        self,
        trainer,
        step: int,
        x: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator,
        recorder: Recorder,
    ) -> None:
        """Measure and record series points at batch index ``step``."""
        raise NotImplementedError


def _rel_frobenius(approx: np.ndarray, exact: np.ndarray) -> float:
    denom = float(np.linalg.norm(exact))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(approx - exact)) / denom


class ForwardErrorProbe(Probe):
    """Per-layer exact-vs-approx forward error (the Theorem 7.2 signal).

    Runs the trainer's exact and approximate forward passes on a slice
    of the current batch and records, per layer ``k`` (1-based, matching
    the theorem's exponent), the relative Frobenius error
    ``‖ã^k − a^k‖/‖a^k‖`` and the compounding ratio
    ``err(k)/err(k-1)`` — the measured analogue of the analytical
    ``((c+1)/c)^k − 1`` curve the HTML report overlays.
    """

    name = "forward_error"

    def __init__(self, max_samples: int = 8):
        if max_samples < 1:
            raise ValueError(f"max_samples must be at least 1, got {max_samples}")
        self.max_samples = int(max_samples)

    def supports(self, trainer) -> bool:
        return hasattr(trainer, "probe_approx_forward")

    def run(self, trainer, step, x, y, rng, recorder) -> None:
        xs = np.atleast_2d(np.asarray(x, dtype=float))[: self.max_samples]
        exact = trainer.probe_exact_forward(xs)
        approx = trainer.probe_approx_forward(xs, rng)
        prev: Optional[float] = None
        for k, (e, a) in enumerate(zip(exact, approx), start=1):
            err = _rel_frobenius(a, e)
            recorder.series(layer_series(SERIES_FWD_REL_ERROR, k), step, err)
            recorder.add(PROBE_POINTS)
            if prev is not None and prev > 0.0:
                recorder.series(
                    layer_series(SERIES_FWD_COMPOUND, k), step, err / prev
                )
                recorder.add(PROBE_POINTS)
            prev = err


class LSHRecallProbe(Probe):
    """LSH recall@k and candidate precision against brute-force MIPS.

    For each hidden layer with a hash index: hash a few activation
    vectors through the counters-off query path, compare the candidate
    set against the exact top-k columns by inner product, and record
    mean recall (top-k hits / k) and precision (top-k hits / candidate
    count).  Activations advance layer-to-layer through the *exact*
    forward pass so layer ``k``'s queries are the inputs the index
    actually serves in training.  Also records the backend's garbage
    fraction gauge (flat-backend tombstone health).
    """

    name = "lsh_recall"

    def __init__(self, k: int = 10, max_queries: int = 4):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if max_queries < 1:
            raise ValueError(
                f"max_queries must be at least 1, got {max_queries}"
            )
        self.k = int(k)
        self.max_queries = int(max_queries)

    def supports(self, trainer) -> bool:
        return bool(getattr(trainer, "indexes", None))

    def run(self, trainer, step, x, y, rng, recorder) -> None:
        a_prev = np.atleast_2d(np.asarray(x, dtype=float))[: self.max_queries]
        act = trainer.net.hidden_activation
        garbage = 0.0
        for i, index in enumerate(trainer.indexes):
            layer = trainer.net.layers[i]
            k = min(self.k, layer.n_out)
            scores = a_prev @ layer.W
            top = np.argpartition(-scores, k - 1, axis=1)[:, :k]
            recalls, precisions = [], []
            for q, true_top in zip(a_prev, top):
                cand = index.query(q, record=False)
                hits = np.intersect1d(cand, true_top).size
                recalls.append(hits / k)
                precisions.append(hits / cand.size if cand.size else 0.0)
            recorder.series(
                layer_series(SERIES_LSH_RECALL, i + 1),
                step,
                float(np.mean(recalls)),
            )
            recorder.series(
                layer_series(SERIES_LSH_PRECISION, i + 1),
                step,
                float(np.mean(precisions)),
            )
            recorder.add(PROBE_POINTS, 2)
            garbage = max(garbage, index.garbage_fraction())
            a_prev = act.forward(scores + layer.b)
        recorder.gauge(LSH_GARBAGE_FRAC, garbage)


class MCEstimatorProbe(Probe):
    """MC estimator bias/variance from repeated draws on live operands.

    Re-estimates the first layer's forward product ``x @ W¹`` several
    times at the trainer's own sample budget and records the empirical
    relative bias and single-draw error next to the closed-form
    expectation (:func:`repro.approx.bernoulli.estimator_moments`).
    Bias should sit near zero at every point of training — the
    estimator is unbiased by construction — while the std tracks how
    the waterfilled probabilities cope with the moving weight
    distribution.
    """

    name = "mc_estimator"

    def __init__(self, draws: int = 8, max_samples: int = 8):
        if draws < 2:
            raise ValueError(f"draws must be at least 2, got {draws}")
        if max_samples < 1:
            raise ValueError(f"max_samples must be at least 1, got {max_samples}")
        self.draws = int(draws)
        self.max_samples = int(max_samples)

    def supports(self, trainer) -> bool:
        return hasattr(trainer, "_node_budget") and hasattr(trainer, "k")

    def run(self, trainer, step, x, y, rng, recorder) -> None:
        # Deferred import: the sanctioned obs -> repro.approx boundary
        # (see the module docstring); repro.approx never imports obs.
        from ..approx.bernoulli import estimator_moments

        a = np.atleast_2d(np.asarray(x, dtype=float))[: self.max_samples]
        layer = trainer.net.layers[0]
        moments = estimator_moments(
            a, layer.W, trainer._node_budget(layer.n_in), rng, draws=self.draws
        )
        recorder.series(SERIES_MC_REL_BIAS, step, moments["rel_bias"])
        recorder.series(SERIES_MC_REL_STD, step, moments["rel_std"])
        recorder.series(
            SERIES_MC_EXPECTED_ERROR, step, moments["expected_rel_error"]
        )
        recorder.add(PROBE_POINTS, 3)


def default_probes() -> List[Probe]:
    """The standard probe set; inapplicable probes skip themselves."""
    return [ForwardErrorProbe(), LSHRecallProbe(), MCEstimatorProbe()]


class ProbeManager:
    """Owns the probe set, cadence, budget and the private RNG stream.

    Attach to a trainer with ``trainer.attach_probes(manager)``; the
    base ``fit`` loop calls :meth:`on_batch` after every optimisation
    step.  With the null recorder every call returns immediately (one
    integer increment), preserving the zero-cost disabled path.

    Parameters
    ----------
    probes:
        Probe instances; defaults to :func:`default_probes`.
    probe_every:
        Cadence in batches (fire when ``step % probe_every == 0``).
    budget:
        Per-invocation wall-clock budget in seconds; a probe exceeding
        it once is disabled for the rest of the run.  ``None`` disables
        budgeting (deterministic runs for tests).
    seed:
        Seed of the private RNG stream — independent of the trainer's.
    """

    def __init__(
        self,
        probes: Optional[Iterable[Probe]] = None,
        probe_every: int = DEFAULT_PROBE_EVERY,
        budget: Optional[float] = DEFAULT_PROBE_BUDGET,
        seed: Optional[int] = None,
    ):
        if probe_every < 1:
            raise ValueError(f"probe_every must be at least 1, got {probe_every}")
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        self.probes: List[Probe] = (
            list(probes) if probes is not None else default_probes()
        )
        self.probe_every = int(probe_every)
        self.budget = None if budget is None else float(budget)
        self.rng = np.random.default_rng(seed)
        self.step = 0
        self.disabled: set = set()

    # ------------------------------------------------------------------
    def on_batch(self, trainer, x: np.ndarray, y: np.ndarray) -> None:
        """Advance the batch counter; run the probe set on cadence."""
        self.step += 1
        recorder: Recorder = trainer.obs
        if not recorder.enabled:
            return
        if self.step % self.probe_every:
            return
        with getattr(trainer, "probe_scope", nullcontext)():
            for probe in self.probes:
                if probe.name in self.disabled:
                    continue
                if not probe.supports(trainer):
                    recorder.add(PROBE_SKIPPED)
                    continue
                start = time.perf_counter()
                probe.run(trainer, self.step, x, y, self.rng, recorder)
                elapsed = time.perf_counter() - start
                recorder.add(PROBE_RUNS)
                recorder.add_time(f"probe.{probe.name}", elapsed)
                if self.budget is not None and elapsed > self.budget:
                    self.disabled.add(probe.name)
                    recorder.add(PROBE_DISABLED)

    # ------------------------------------------------------------------
    # checkpoint support (rides in the trainer checkpoint payload)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe mutable state: step counter, RNG stream, disables."""
        return {
            "step": int(self.step),
            "disabled": sorted(self.disabled),
            "rng_state": self.rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` capture (bitwise-identical resume)."""
        self.step = int(state["step"])
        self.disabled = set(state["disabled"])
        self.rng.bit_generator.state = state["rng_state"]
