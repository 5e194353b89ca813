"""Obs suite of ``python -m repro bench``: what telemetry costs.

Trains an MLP for a fixed number of batches under four instrumentation
levels — NullRecorder, NullRecorder with the default quality probes
attached, InMemoryRecorder, and InMemoryRecorder with probes at the
default cadence — taking the min over ``REPEATS`` runs of each, one
variant after the other.  Then it drives the micro-batched inference
server through a fixed request load, min of ``SERVE_REPEATS``, with a
null recorder and tracer and then with a live recorder and request
tracer, to price the serving telemetry (latency/queue-wait histograms,
request-id minting, trace events).  The gate fails when:

* attaching probes under the NullRecorder costs anything measurable
  (probes must short-circuit on ``enabled`` — the no-op guarantee), or
* probes at the default cadence cost more than 5 % of traced training
  wall-clock, or
* serve-side histograms + tracing cost more than 5 % of serving
  wall-clock.

It lives in the harness rather than in :mod:`repro.obs` because it
trains through ``make_trainer`` and serves through ``InferenceServer``,
and the ``repro.obs`` core imports nothing else from ``repro``.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Sequence

import numpy as np

from ..core.registry import make_trainer
from ..nn.network import MLP
from ..obs import NULL_RECORDER, InMemoryRecorder, RequestTracer
from ..obs.probes import DEFAULT_PROBE_EVERY, ProbeManager, default_probes
from ..obs.tracectx import NULL_TRACER
from ..serve.server import InferenceServer, seeded_servable

HEADER = {"probe_every": DEFAULT_PROBE_EVERY}
REPEATS = 3  # timed runs per training variant; the fastest counts
SERVE_REPEATS = 5  # serve timings are shorter and noisier

#: (variant, kind, telemetry on, probes attached, baseline variant), in
#: timing order.
_VARIANTS = (
    ("null", "train", False, False, None),
    ("null_probed", "train", False, True, "null"),
    ("inmem", "train", True, False, "null"),
    ("inmem_probed", "train", True, True, "inmem"),
    ("serve_null", "serve", False, False, None),
    ("serve_telemetry", "serve", True, False, "serve_null"),
)

#: gated variant -> (limit on its overhead over the baseline, what the
#: overhead prices).  The null-recorder limit is the timing noise floor
#: of the "≈ 0" gate: min-of-repeats still jitters a few percent on
#: shared CI runners.
LIMITS = {
    "null_probed": (0.03, "probes attached under NullRecorder"),
    "inmem_probed": (0.05, "default-cadence probes under InMemoryRecorder"),
    "serve_telemetry": (0.05, "serve histograms + request tracing"),
}


def configs(quick: bool) -> List[Dict]:
    """The six variants, at a small shape for CI or the paper's."""
    if quick:
        train = {"sizes": [64, 256, 256, 10], "n_samples": 2400,
                 "batch_size": 10, "epochs": 2}  # 480 batches
        # ~2.80M MACs/request — matches the full paper shape (~2.79M), so
        # the quick ratio prices telemetry against the same per-request
        # compute the full gate sees.
        serve = {"requests": 1500, "model": {"input_dim": 256, "hidden": 1536,
                                             "depth": 2, "classes": 32}}
    else:
        train = {"sizes": [784, 1000, 1000, 1000, 10], "n_samples": 3000,
                 "batch_size": 20, "epochs": 2}  # the paper's MNIST shape
        serve = {"requests": 3000, "model": {"input_dim": 784, "hidden": 1000,
                                             "depth": 3, "classes": 10}}
    return [
        {"variant": variant, "kind": kind, "telemetry": telemetry,
         "probes": probes, "baseline": baseline, "gate": variant in LIMITS,
         **(train if kind == "train" else serve)}
        for variant, kind, telemetry, probes, baseline in _VARIANTS
    ]


def _train_once(config: Dict, x: np.ndarray, y: np.ndarray) -> float:
    net = MLP(config["sizes"], seed=0)
    trainer = make_trainer(
        "standard", net, lr=1e-3, seed=0,
        recorder=InMemoryRecorder() if config["telemetry"] else None,
    )
    if config["probes"]:
        trainer.attach_probes(
            ProbeManager(default_probes(), probe_every=DEFAULT_PROBE_EVERY,
                         seed=0)
        )
    start = time.perf_counter()
    trainer.fit(x, y, epochs=config["epochs"], batch_size=config["batch_size"])
    return time.perf_counter() - start


def _serve_once(model, xs: np.ndarray, telemetry: bool) -> float:
    """One deterministic serve pass: requests through run_once dispatch.

    Uses the single-threaded ``start_worker=False`` mode so the timing
    measures the submit/dispatch/handler path itself, not worker-thread
    scheduling noise.  The handler is a real model forward at a serving
    shape heavy enough that per-request telemetry (histogram records,
    id minting, trace events) is priced against real work.  The model
    and inputs are built once by the caller — cold-start allocations
    must not land inside the timed region.
    """
    recorder, tracer = ((InMemoryRecorder(), RequestTracer()) if telemetry
                        else (NULL_RECORDER, NULL_TRACER))
    requests = xs.shape[0]
    server = InferenceServer(
        model, max_batch=32, max_wait=0.0, max_queue=requests + 1,
        recorder=recorder, tracer=tracer, start_worker=False,
    )
    pending = []
    start = time.perf_counter()
    for i in range(requests):
        pending.append(server.submit(xs[i]))
        if len(pending) >= 32:
            server.run_once(force=True)
            for req in pending:
                req.result(timeout=5.0)
            pending.clear()
    server.run_once(force=True)
    for req in pending:
        req.result(timeout=5.0)
    elapsed = time.perf_counter() - start
    server.close()
    return elapsed


def run(configs: Sequence[Dict]) -> Iterator[Dict]:
    """Time every variant in order; yields one record per variant."""
    seconds: Dict[str, float] = {}
    data = served = None
    for config in configs:
        if config["kind"] == "train":
            if data is None:
                n, sizes = config["n_samples"], config["sizes"]
                rng = np.random.default_rng(0)
                data = (rng.standard_normal((n, sizes[0])),
                        rng.integers(0, sizes[-1], size=n))
            took = min(_train_once(config, *data) for _ in range(REPEATS))
        else:
            if served is None:
                # Timing noise at these durations is dominated by GEMM
                # jitter, so both serve variants share one model, warmed
                # before anything is timed.
                model = seeded_servable(seed=0, **config["model"])
                xs = np.random.default_rng(0).standard_normal(
                    (config["requests"], model.input_dim))
                _serve_once(model, xs[:64], telemetry=False)
                served = model, xs
            took = min(_serve_once(*served, config["telemetry"])
                       for _ in range(SERVE_REPEATS))
        seconds[config["variant"]] = took
        record = dict(config, seconds=took)
        if config["baseline"]:
            record["overhead"] = took / seconds[config["baseline"]] - 1.0
        yield record


def summary(record: Dict) -> str:
    line = f"obs-bench:{record['variant']}: {record['seconds']:.3f}s"
    if "overhead" in record:
        line += f", {record['overhead']:+.2%} over {record['baseline']}"
    return line


def gate(records: Sequence[Dict], quick: bool) -> List[str]:
    """Overhead gate: each gated variant against its baseline's time."""
    failures = []
    for record in records:
        if record["variant"] not in LIMITS:
            continue
        limit, what = LIMITS[record["variant"]]
        if record["overhead"] > limit:
            failures.append(
                f"obs-bench:{record['variant']}: {what} cost "
                f"{record['overhead']:+.2%} over {record['baseline']} "
                f"(limit {limit:.0%})"
            )
    return failures
