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

:func:`serve_session` is the one serving session: ``python -m repro
serve``, its ``--smoke`` (:func:`run_smoke`) and ``bench serve`` each
serve their request stream through it.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..backend import check_backend, use_backend
from ..obs import (
    NULL_RECORDER,
    InMemoryRecorder,
    MetricsServer,
    Recorder,
    attach_burn_gauges,
    parse_prometheus,
    trace_record,
    write_trace,
)
from ..obs.counters import (
    SERVE_LATENCY_P50,
    SERVE_LATENCY_P99,
    SERVE_SHED_QUEUE_FULL,
)
from ..obs.probes import ProbeManager
from ..obs.tracectx import NULL_TRACER, RequestTracer
from .batcher import MicroBatcher, ServeError, ServeRequest, ServerOverloaded
from .head import ALSHTopKHead, HeadRecallProbe
from .registry import ServableModel

__all__ = ["InferenceServer", "seeded_servable", "serve_session"]


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
        The servable to answer with.
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

    Returns shed/error/ok counts — the client loop of
    :func:`serve_session`.
    """
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


def serve_session(
    model: ServableModel,
    requests: int,
    seed: int = 0,
    label: str = "serve",
    topk: Optional[int] = None,
    exact: bool = False,
    max_batch: int = 32,
    max_wait: float = 0.002,
    window: int = 64,
    metrics_port: Optional[int] = None,
    slo: Optional[List[dict]] = None,
    store=None,
    scrape: Optional[Callable[[str], object]] = None,
    verbose: bool = False,
) -> dict:
    """Serve ``requests`` seeded rows through one :class:`InferenceServer`.

    The one session behind ``serve``, ``serve --smoke`` and ``bench
    serve``: it builds the recorder, the request tracer (given a
    ``store``), the server (log-probabilities, or ``topk`` ids through
    the ALSH head) and, given ``metrics_port``, the ``/metrics`` exporter
    with ``slo.burn.*`` gauges for ``slo`` (loaded spec entries); fires
    ``default_rng(seed).normal`` rows through :func:`_fire`, ``window``
    in flight, and times them; calls ``scrape(url)`` while the exporter
    still answers; closes server and exporter; and appends one ``label``
    trace record carrying ``elapsed`` to ``store``.  ``verbose`` prints
    the exporter's URL and the store written.

    Raises ``ValueError``, before anything is served, for a mode or
    ``topk`` the model cannot answer.  Returns :func:`_fire`'s counts
    plus ``elapsed``, ``stats`` (:meth:`InferenceServer.stats`), the final
    ``snapshot``, the closed ``server``, the ``rows`` fired and what
    ``scrape`` returned (``scraped``).
    """
    recorder = InMemoryRecorder()
    tracer = RequestTracer(sink=store) if store else NULL_TRACER
    server = InferenceServer(
        model,
        mode="logproba" if topk is None else "topk",
        k=10 if topk is None else topk,
        exact=exact,
        max_batch=max_batch,
        max_wait=max_wait,
        # No windowed client fills this queue: nominal load sheds nothing.
        max_queue=max(4 * requests, 1024),
        recorder=recorder,
        tracer=tracer,
    )
    metrics = scraped = None
    rows = np.random.default_rng(seed).normal(size=(requests, model.input_dim))
    try:
        if metrics_port is not None:
            snapshot_fn = recorder.snapshot
            if slo:
                snapshot_fn = lambda: attach_burn_gauges(  # noqa: E731
                    recorder.snapshot(), slo
                )
            metrics = MetricsServer(
                snapshot_fn, port=metrics_port, ready_fn=server.ready
            )
            if verbose:
                print(f"metrics: serving {metrics.url}/metrics")
        start = time.perf_counter()
        outcome = _fire(server, rows, window=window)
        elapsed = time.perf_counter() - start
        stats = server.stats()
        if scrape is not None and metrics is not None:
            scraped = scrape(metrics.url)
    finally:
        server.close()
        if metrics is not None:
            metrics.close()
    snapshot = recorder.snapshot()
    if store:
        tracer.flush()
        write_trace(store, trace_record(snapshot, label=label, elapsed=elapsed))
        if verbose:
            print(f"trace appended to {store}")
    outcome.update(elapsed=elapsed, stats=stats, snapshot=snapshot,
                   server=server, rows=rows, scraped=scraped)
    return outcome


def run_smoke(
    requests: int = 1000,
    seed: int = 0,
    verbose: bool = True,
    model: Optional[ServableModel] = None,
    **flags,
) -> int:
    """The CI serve-smoke: nominal load sheds nothing, overload sheds.

    Serves ``requests`` rows of ``model`` (default: the seeded demo)
    through one :func:`serve_session`, which takes every other keyword
    (``topk``, ``exact``, ``max_batch``, ``max_wait``, ``metrics_port``,
    ``slo``, ``store``: every ``serve`` flag), asserting zero sheds and
    every answer served; then fires the same rows at a queue of 8 behind
    a deliberately slowed handler, asserting the load-shedding path
    actually rejects.  Returns a process exit code.

    With ``metrics_port`` the smoke scrapes ``/metrics``, ``/healthz``
    and ``/readyz`` while the server runs and validates the exposition:
    the serve latency histogram, and the burn gauges given ``slo`` — the
    CI metrics-smoke path.
    """
    from urllib.request import urlopen

    if model is None:
        model = seeded_servable(seed=seed)

    def check_endpoints(url: str) -> Optional[str]:
        """What the live endpoints got wrong, or None."""
        with urlopen(url + "/metrics", timeout=10.0) as resp:
            exposition = resp.read().decode("utf-8")
        with urlopen(url + "/healthz", timeout=10.0) as resp:
            health = resp.status
        with urlopen(url + "/readyz", timeout=10.0) as resp:
            ready = resp.status
        try:
            samples = parse_prometheus(exposition)
        except ValueError as exc:
            return f"/metrics must parse as a Prometheus exposition: {exc}"
        if verbose:
            print(
                f"metrics: scraped {len(samples)} metric(s), "
                f"healthz {health}, readyz {ready}"
            )
        if health != 200 or ready != 200:
            return "health endpoints must answer 200 under nominal load"
        if "repro_serve_latency_s_count" not in samples:
            return "/metrics must expose the serve latency histogram"
        if flags.get("slo") and not any(
            name.startswith("repro_slo_burn_") for name in samples
        ):
            return "/metrics must expose the SLO burn gauges"
        return None

    nominal = serve_session(
        model, requests, seed=seed, label="serve-smoke",
        scrape=check_endpoints, verbose=verbose, **flags,
    )
    if nominal["scraped"]:
        print(f"FAIL: {nominal['scraped']}")
        return 1
    if verbose:
        stats = nominal["stats"]
        print(
            f"nominal: {nominal['ok']}/{requests} served, "
            f"{nominal['shed']} shed, "
            f"p50 {stats['latency_p50'] * 1e3:.2f}ms, "
            f"p99 {stats['latency_p99'] * 1e3:.2f}ms"
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
    for row in nominal["rows"]:
        try:
            batcher.submit(row)
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
