"""The inference server: registry model + micro-batcher + optional head.

:class:`InferenceServer` is the composition point of the serving layer:
requests enter through :meth:`submit`, the
:class:`~repro.serve.batcher.MicroBatcher` forms micro-batches, one
batched forward runs through the active compute backend, and responses
scatter back to their callers.  Two answer modes:

``logproba``
    Full log-probability rows — the exact serving path.  With
    ``pad_batches=True`` every forward runs at ``max_batch`` rows, so
    responses are bitwise identical to unbatched forwards on the
    reference backend regardless of batch composition.
``topk``
    ``(ids, logits)`` of the top-k classes, answered by the
    :class:`~repro.serve.head.ALSHTopKHead` from LSH candidates alone
    (``exact=True`` restores the full output GEMM).

Quality measurement reuses the training-side probe machinery: the
server duck-types the :class:`~repro.obs.probes.ProbeManager`'s trainer
protocol (it has an ``obs`` recorder), so
:class:`~repro.serve.head.HeadRecallProbe` runs on the standard
cadence/budget rules and lands recall@k in the trace.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..backend import check_backend, use_backend
from ..obs import NULL_RECORDER, Recorder
from ..obs.counters import SERVE_LATENCY_P50, SERVE_LATENCY_P99
from ..obs.probes import ProbeManager
from ..obs.tracectx import NULL_TRACER, RequestTracer
from .batcher import MicroBatcher, ServeRequest
from .head import ALSHTopKHead, HeadRecallProbe
from .registry import ServableModel

__all__ = ["InferenceServer", "seeded_servable"]


def seeded_servable(
    input_dim: int = 64,
    hidden: int = 128,
    depth: int = 2,
    classes: int = 32,
    embed: Optional[int] = None,
    seed: int = 0,
    name: str = "demo",
) -> ServableModel:
    """A deterministic untrained MLP servable for smokes, benches, tests.

    The weights are seeded He-normal draws — for serving-layer
    measurements (latency, batching, recall of an index over the real
    weight columns) a trained model adds nothing but minutes.

    ``embed`` inserts a narrow layer between the trunk and the output —
    the retrieval-style "wide trunk → small embedding → wide prototype
    layer" shape where an LSH top-k head earns its keep (SRP hashes
    discriminate far better at embedding width than at trunk width).
    """
    from ..nn.network import MLP

    sizes = [input_dim] + [hidden] * depth
    if embed is not None:
        sizes.append(int(embed))
    net = MLP(sizes + [classes], seed=seed)
    return ServableModel(net, name=name)


class InferenceServer:
    """Serve one :class:`~repro.serve.registry.ServableModel`.

    Parameters
    ----------
    model:
        The servable to answer with (MLP kinds only).
    mode:
        ``"logproba"`` or ``"topk"``.
    k, exact, head, head_kwargs:
        Top-k mode configuration: answer size, the exact escape hatch,
        an optional pre-built :class:`ALSHTopKHead` (otherwise one is
        built over the model's output layer with ``head_kwargs``).
    max_batch, max_wait, max_queue, default_deadline:
        Micro-batching and overload policy (see
        :class:`~repro.serve.batcher.MicroBatcher`).
    pad_batches:
        Pad every forward to ``max_batch`` rows — the bitwise-serving
        mode (costs the padding FLOPs on partial batches).
    backend:
        Compute backend object (a wrapper, say) activated around every
        handler call (None = the ambient default); anything else, a name
        included, is refused with ``TypeError``.
    probe_every:
        Attach a :class:`HeadRecallProbe` on this batch cadence
        (requires an enabled recorder to do anything).
    clock, recorder, tracer, start_worker:
        Injection points shared with :class:`MicroBatcher`; ``tracer``
        mints one request id per :meth:`submit` and records the
        request's hops (enqueued → dispatched → completed/shed) plus
        the batch-scoped trunk/head spans.
    """

    def __init__(
        self,
        model: ServableModel,
        mode: str = "logproba",
        k: int = 10,
        exact: bool = False,
        head: Optional[ALSHTopKHead] = None,
        head_kwargs: Optional[dict] = None,
        max_batch: int = 32,
        max_wait: float = 0.002,
        max_queue: int = 256,
        default_deadline: Optional[float] = None,
        pad_batches: bool = False,
        backend=None,
        probe_every: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        recorder: Recorder = NULL_RECORDER,
        tracer: RequestTracer = NULL_TRACER,
        start_worker: bool = True,
    ):
        if mode not in ("logproba", "topk"):
            raise ValueError(f"unknown serve mode {mode!r}")
        if mode == "topk" and not model.supports_head:
            raise ValueError(f"model kind {model.kind!r} cannot serve top-k")
        if mode == "logproba" and model.kind != "mlp":
            raise ValueError(f"model kind {model.kind!r} cannot serve logproba")
        if backend is not None:
            check_backend(backend, type(self).__name__)
        self.model = model
        self.mode = mode
        self.k = int(k)
        self.exact = bool(exact)
        self.obs = recorder
        self.tracer = tracer
        self.backend = backend
        self.head: Optional[ALSHTopKHead] = None
        if mode == "topk":
            if head is None:
                head = ALSHTopKHead(
                    model.output_layer(), k=self.k,
                    recorder=recorder, **(head_kwargs or {}),
                )
            elif not 1 <= self.k <= head.n_classes:
                raise ValueError(
                    f"k must be in [1, {head.n_classes}], got {self.k}"
                )
            self.head = head
        self._pad_to = int(max_batch) if pad_batches else None
        self._probes: Optional[ProbeManager] = None
        if probe_every is not None:
            self._probes = ProbeManager(
                probes=[HeadRecallProbe()], probe_every=probe_every,
                budget=None, seed=0,
            )
        self.batcher = MicroBatcher(
            self._handle,
            max_batch=max_batch,
            max_wait=max_wait,
            max_queue=max_queue,
            default_deadline=default_deadline,
            clock=clock,
            recorder=recorder,
            tracer=tracer,
            start_worker=start_worker,
        )

    # ------------------------------------------------------------------
    def _answer(self, batch: np.ndarray):
        batch_id = self.batcher.dispatching_batch_id
        if self.mode == "logproba":
            start = time.perf_counter()
            out = self.model.predict_logproba(batch, pad_to=self._pad_to)
            if batch_id is not None:
                self.tracer.batch_event(
                    batch_id, "forward", seconds=time.perf_counter() - start
                )
            return out
        start = time.perf_counter()
        trunk = self.model.trunk_forward(batch, pad_to=self._pad_to)
        mid = time.perf_counter()
        ids, logits = self.head.topk(trunk, self.k, exact=self.exact)
        if batch_id is not None:
            self.tracer.batch_event(
                batch_id, "trunk_forward", seconds=mid - start
            )
            self.tracer.batch_event(
                batch_id, "head_topk", seconds=time.perf_counter() - mid
            )
        return [(ids[i], logits[i]) for i in range(ids.shape[0])]

    def _handle(self, batch: np.ndarray):
        start = time.perf_counter()
        if self.backend is not None:
            with use_backend(self.backend):
                out = self._answer(batch)
        else:
            out = self._answer(batch)
        self.obs.add_time("serve.handler", time.perf_counter() - start)
        if self._probes is not None:
            self._probes.on_batch(self, batch, None)
        return out

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(
        self, x: np.ndarray, deadline: Optional[float] = None
    ) -> ServeRequest:
        """Enqueue one sample; returns a future-like request handle.

        With a live tracer the request id is minted here — read it from
        the returned handle's ``request_id`` to follow the request
        through ``trace-report --request``.
        """
        return self.batcher.submit(
            x, deadline=deadline, request_id=self.tracer.mint()
        )

    def predict(self, x: np.ndarray, timeout: Optional[float] = 5.0):
        """Synchronous single-sample convenience wrapper."""
        return self.submit(x).result(timeout=timeout)

    def run_once(self, force: bool = False) -> int:
        """Deterministic dispatch (``start_worker=False`` mode)."""
        return self.batcher.run_once(force=force)

    def ready(self) -> Tuple[bool, str]:
        """``/readyz``'s answer: ready while the queue is below the depth
        at which :meth:`submit` sheds."""
        if self.batcher.queue_depth() < self.batcher.max_queue:
            return True, "ok"
        return False, "queue at shed threshold"

    def close(self, drain: bool = True) -> None:
        self.batcher.close(drain=drain)
        self._record_latency_gauges()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _record_latency_gauges(self) -> None:
        lat = self.batcher.latency
        if lat.count and self.obs.enabled:
            self.obs.gauge(SERVE_LATENCY_P50, float(lat.quantile(0.5)))
            self.obs.gauge(SERVE_LATENCY_P99, float(lat.quantile(0.99)))

    def stats(self) -> dict:
        """Latency percentiles and queue statistics for reporting.

        Percentiles are estimated from the batcher's bounded log-bucket
        histogram, so memory stays O(buckets) however long the server
        runs; each estimate lies in the same bucket as the true order
        statistic (relative error at most one bucket width, ≤ ~15% at
        the default layout — see :mod:`repro.obs.histogram`).
        """
        lat = self.batcher.latency
        self._record_latency_gauges()
        return {
            "served": lat.count,
            "queue_depth": self.batcher.queue_depth(),
            "latency_p50": lat.quantile(0.5),
            "latency_p99": lat.quantile(0.99),
        }


def _fire(
    server: InferenceServer,
    xs: np.ndarray,
    window: int = 64,
) -> dict:
    """Submit every row with a bounded in-flight window; await all.

    Returns shed/error/ok counts — the smoke and bench client loop.
    """
    from .batcher import ServeError, ServerOverloaded

    pending: List[ServeRequest] = []
    ok = shed = failed = 0
    for row in xs:
        try:
            pending.append(server.submit(row))
        except ServerOverloaded:
            shed += 1
            continue
        if len(pending) >= window:
            request = pending.pop(0)
            try:
                request.result(timeout=30.0)
                ok += 1
            except ServeError:
                failed += 1
    for request in pending:
        try:
            request.result(timeout=30.0)
            ok += 1
        except ServeError:
            failed += 1
    return {"ok": ok, "shed": shed, "failed": failed}


def run_smoke(
    requests: int = 1000,
    seed: int = 0,
    verbose: bool = True,
    metrics_port: Optional[int] = None,
    store: Optional[str] = None,
) -> int:
    """The CI serve-smoke: nominal load sheds nothing, overload sheds.

    Spins the server in-process, fires ``requests`` requests at a
    generously sized queue (asserting zero sheds and all answers
    served), then again at a tiny queue with a deliberately slowed
    handler (asserting the load-shedding path actually rejects).
    Returns a process exit code.

    ``metrics_port`` additionally attaches the live exporter, then
    self-scrapes ``/metrics``, ``/healthz`` and ``/readyz`` and
    validates the exposition — the CI metrics-smoke path.  ``store``
    writes the final snapshot (histograms included) and the request
    trace events to a JSONL file for ``slo-check`` /
    ``trace-report --request``.
    """
    from ..obs import InMemoryRecorder
    from ..obs.counters import SERVE_SHED_QUEUE_FULL
    from ..obs.export import MetricsServer, parse_prometheus
    from ..obs.sink import trace_record, write_trace

    rng = np.random.default_rng(seed)
    model = seeded_servable(seed=seed)
    xs = rng.normal(size=(requests, model.input_dim))

    recorder = InMemoryRecorder()
    tracer = RequestTracer(sink=store) if store else NULL_TRACER
    server = InferenceServer(
        model, max_batch=32, max_wait=0.001, max_queue=4 * requests,
        recorder=recorder, tracer=tracer,
    )
    metrics = None
    if metrics_port is not None:
        metrics = MetricsServer(
            recorder.snapshot, port=metrics_port, ready_fn=server.ready
        )
        if verbose:
            print(f"metrics: serving {metrics.url}/metrics")
    try:
        nominal = _fire(server, xs)
        nominal_stats = server.stats()
        if metrics is not None:
            from urllib.request import urlopen

            with urlopen(metrics.url + "/metrics", timeout=10.0) as resp:
                samples = parse_prometheus(resp.read().decode("utf-8"))
            with urlopen(metrics.url + "/healthz", timeout=10.0) as resp:
                health = resp.status
            with urlopen(metrics.url + "/readyz", timeout=10.0) as resp:
                ready = resp.status
            if verbose:
                print(
                    f"metrics: scraped {len(samples)} metric(s), "
                    f"healthz {health}, readyz {ready}"
                )
            if health != 200 or ready != 200:
                print("FAIL: health endpoints must answer 200 under nominal load")
                return 1
            if "repro_serve_latency_s_count" not in samples:
                print("FAIL: /metrics must expose the serve latency histogram")
                return 1
    finally:
        server.close()
        if metrics is not None:
            metrics.close()
    if store:
        tracer.flush()
        write_trace(
            store,
            trace_record(recorder.snapshot(), label="serve-smoke"),
        )
        if verbose:
            print(f"store: snapshot + request traces written to {store}")
    if verbose:
        print(
            f"nominal: {nominal['ok']}/{requests} served, "
            f"{nominal['shed']} shed, "
            f"p50 {nominal_stats['latency_p50'] * 1e3:.2f}ms, "
            f"p99 {nominal_stats['latency_p99'] * 1e3:.2f}ms"
        )
    if nominal["shed"] or nominal["failed"] or nominal["ok"] != requests:
        print("FAIL: nominal load must serve every request without shedding")
        return 1

    # Overload: a handler an order of magnitude slower than the arrival
    # rate and a queue of 8 — the shed counter must move.
    slow_model_delay = 0.005
    answer = model.predict_logproba

    def slow_handler(batch):
        time.sleep(slow_model_delay)
        return answer(batch)

    overload_recorder = InMemoryRecorder()
    batcher = MicroBatcher(
        slow_handler, max_batch=8, max_wait=0.001, max_queue=8,
        recorder=overload_recorder,
    )
    shed = 0
    pending = []
    from .batcher import ServerOverloaded

    for row in xs:
        try:
            pending.append(batcher.submit(row))
        except ServerOverloaded:
            shed += 1
    batcher.close()
    if verbose:
        print(f"overload: {shed}/{requests} shed "
              f"(queue depth 8, {slow_model_delay * 1e3:.0f}ms handler)")
    if shed == 0 or overload_recorder.get(SERVE_SHED_QUEUE_FULL) != shed:
        print("FAIL: overload must shed and count what it shed")
        return 1
    if verbose:
        print("serve smoke ok")
    return 0
