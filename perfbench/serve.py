"""serve-openloop: ALSH top-k serving under an open-loop Poisson schedule.

The model is the ``serve-bench`` shape (784 -> 1000 x 3 -> 128 -> 512)
served by an ``InferenceServer`` in top-k mode at micro-batch 32.  The
arrival schedule is drawn from the seed before the clock starts; one
generator thread (the main thread) submits each request when it falls due,
however far behind the server is, and every latency is measured from the
due time.  A closed-loop segment (a fixed window of in-flight requests)
then measures capacity: requests per second of the batcher worker's time
inside the handler.  The wall-clock closed-loop rate also depends on how
the client thread and the worker share two cores, which other tenants of
the machine disturb in a way the calibration (one thread) does not see;
it is printed beside it.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.backend import InstrumentedBackend, default_backend_name, get_backend
from repro.obs import NULL_RECORDER, InMemoryRecorder
from repro.serve.batcher import ServeError, ServerOverloaded
from repro.serve.bench import MICRO_BATCH, MODEL_SHAPE
from repro.serve.server import InferenceServer, seeded_servable

from .calibrate import Calibrator, normalize
from .layers import Tally, install_lsh, shared_metrics
from .outcome import Outcome, counters, median_setup
from .spans import SpanClock, TimingBackend, wrap_attr
from .stats import require_percentile

__all__ = ["poisson_schedule", "run_untraced", "run_traced"]

K = 10
RATE = 1000.0  # requests/s, well below capacity on two cores
LATENCY_LIMIT_MS = 250.0  # a slower answer counts as a failed request
MAX_WAIT = 0.002
POOL = 2048  # distinct request rows, reused cyclically
WINDOW = 4 * MICRO_BATCH  # closed-loop requests in flight
WARMUP_REQUESTS = 256
OPEN_SHARE = 0.6  # of --seconds; the rest measures capacity
SEGMENTS = 4
CLOSED_WINDOWS = 8
GAP_SLICES = 10  # calibration slices in each idle gap
SETUP_REPEATS = 5
TRACED_OPEN = 4000  # a p99 needs ten samples beyond it
TRACED_CLOSED = 3000
CHECK_EVERY = 50  # every 50th open-loop answer is checked against exact
RECALL_FLOOR = 0.9  # BENCH_serve's min_recall gate
RTOL = 1e-9


def poisson_schedule(seed: int, rate: float, n: int) -> np.ndarray:
    """Due offsets (seconds from start) of ``n`` Poisson arrivals."""
    rng = np.random.default_rng([seed, 2])
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


class Setup:
    """Requests, model and a started server (and what each took)."""

    def __init__(self, seed: int, n_open: int, backend=None, recorder=None):
        t0 = time.perf_counter()
        rng = np.random.default_rng([seed, 1])
        self.xs = rng.normal(size=(POOL, MODEL_SHAPE["input_dim"]))
        self.schedule = poisson_schedule(seed, RATE, n_open)
        t1 = time.perf_counter()
        self.model = seeded_servable(seed=seed, name="perfbench", **MODEL_SHAPE)
        t2 = time.perf_counter()
        self.server = InferenceServer(
            self.model,
            mode="topk",
            k=K,
            max_batch=MICRO_BATCH,
            max_wait=MAX_WAIT,
            max_queue=n_open + TRACED_CLOSED + POOL,
            backend=backend,
            clock=time.perf_counter,
            recorder=NULL_RECORDER if recorder is None else recorder,
        )
        self.busy_s = 0.0  # the batcher worker's time inside the handler
        handle = self.server.batcher.handler

        def handler(batch):
            start = time.perf_counter()
            try:
                return handle(batch)
            finally:
                self.busy_s += time.perf_counter() - start

        self.server.batcher.handler = handler
        t3 = time.perf_counter()
        closed_loop(self, WARMUP_REQUESTS)
        t4 = time.perf_counter()
        self.data_s, self.model_s = t1 - t0, t2 - t1
        self.server_s, self.warmup_s = t3 - t2, t4 - t3

    def close(self) -> None:
        self.server.close()


def open_loop(server, xs: np.ndarray, schedule: np.ndarray, first: int = 0):
    """Submit request ``i`` at ``start + schedule[i]``; await all answers.

    Request ``i`` carries row ``first + i`` of the (cyclic) request pool.

    Returns ``(latency_ms, lag_ms, requests, answers, failed)``: latency
    from the due time for every served request, how late each submission
    was, the request handles and answers (None where the request was shed
    or failed), and the failure count.
    """
    n = len(schedule)
    requests: List[Optional[object]] = [None] * n
    lag_ms = np.empty(n)
    start = time.perf_counter()
    due = start + schedule
    for i in range(n):
        delay = due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lag_ms[i] = (time.perf_counter() - due[i]) * 1e3
        try:
            requests[i] = server.submit(xs[(first + i) % len(xs)])
        except ServerOverloaded:
            pass
    latency_ms, answers, failed = [], [], 0
    for i, request in enumerate(requests):
        answer = None
        if request is not None:
            try:
                answer = request.result(timeout=30.0)
            except (ServeError, TimeoutError):
                pass
        if answer is None:
            failed += 1
        else:
            latency = (request.completed_at - due[i]) * 1e3
            latency_ms.append(latency)
            if latency > LATENCY_LIMIT_MS:
                failed += 1
        answers.append(answer)
    return latency_ms, lag_ms, requests, answers, failed


def closed_loop(setup: "Setup", n: int) -> Tuple[float, float, int]:
    """Keep :data:`WINDOW` requests in flight for ``n`` requests.

    Returns ``(capacity, closed-loop rate, failures)``: capacity is the
    requests answered per second of the worker's time inside the handler,
    the rate the server sustains with its worker never idle; the
    closed-loop rate is requests per wall second, which also counts the
    client thread's share of two cores.
    """
    server, xs = setup.server, setup.xs
    pending = []
    failed = 0
    busy = setup.busy_s
    start = time.perf_counter()
    for i in range(n):
        pending.append(server.submit(xs[i % len(xs)]))
        if len(pending) >= WINDOW:
            failed += _await(pending.pop(0))
    for request in pending:
        failed += _await(request)
    wall = time.perf_counter() - start
    return n / (setup.busy_s - busy), n / wall, failed


def _await(request) -> int:
    try:
        request.result(timeout=30.0)
    except (ServeError, TimeoutError):
        return 1
    return 0


def check_answers(out: Outcome, setup: Setup, answers) -> float:
    """Check every :data:`CHECK_EVERY`-th answer against the exact top-k.

    Each checked answer must hold ``K`` distinct ids whose logits equal
    the exact logits and are sorted descending; returns the mean overlap
    with the exact top-k over the checked requests.
    """
    rows = list(range(0, len(answers), CHECK_EVERY))
    xs = setup.xs[[i % len(setup.xs) for i in rows]]
    head = setup.server.head
    layer = head.layer
    trunk = setup.model.trunk_forward(xs)
    exact_ids, _ = head.exact_topk(trunk, K)
    hits = 0
    for j, i in enumerate(rows):
        answer = answers[i]
        if answer is None:
            continue
        ids, logits = answer
        want = trunk[j] @ layer.W[:, ids] + layer.b[ids]
        ok = (
            len(set(ids.tolist())) == K
            and np.allclose(logits, want, rtol=RTOL, atol=0.0)
            and bool(np.all(np.diff(logits) <= 0))
        )
        out.check(ok, f"serve: answer {i} disagrees with the exact logits")
        hits += np.intersect1d(ids, exact_ids[j]).size
    recall = hits / (K * len(rows))
    out.check(recall >= RECALL_FLOOR,
              f"serve: recall@{K} {recall:.3f} below {RECALL_FLOOR}")
    return recall


def run_untraced(seed: int, seconds: float, out: Outcome) -> None:
    """Open loop for most of the budget, then capacity; end-to-end metrics.

    The schedule runs in :data:`SEGMENTS` parts with calibration slices in
    the idle gaps between them, and the capacity segment in
    :data:`CLOSED_WINDOWS` windows likewise, so calibration never competes
    with a request.  Capacity is the median window's, so a window that a
    burst of load from another tenant slowed does not set it.
    """
    n_open = int(RATE * seconds * OPEN_SHARE) // SEGMENTS * SEGMENTS
    n_closed = int(RATE * seconds * (1 - OPEN_SHARE) * 2) // CLOSED_WINDOWS
    setup_cal, cal = Calibrator(), Calibrator()
    setup_s, setup = median_setup(
        lambda: Setup(seed, n_open), SETUP_REPEATS, discard=Setup.close,
        between=setup_cal.slices_before_build,
    )
    latency_ms, answers, lags, capacities, rates = [], [], [], [], []
    try:
        for part in np.split(setup.schedule, SEGMENTS):
            cal.run_slice(GAP_SLICES)
            lat, lag, _, ans, failed = open_loop(
                setup.server, setup.xs, part - part[0], first=len(answers)
            )
            out.ops(len(part), failed, "serve: open-loop requests shed, failed or late")
            latency_ms += lat
            answers += ans
            lags.append(lag.max())
        check_answers(out, setup, answers)
        for _ in range(CLOSED_WINDOWS):
            cal.run_slice(GAP_SLICES)
            capacity, rate, failed = closed_loop(setup, n_closed)
            capacities.append(capacity)
            rates.append(rate)
            out.ops(n_closed, failed, "serve: closed-loop requests failed")
    finally:
        setup.close()
    capacity = statistics.median(capacities)
    p50 = require_percentile(latency_ms, 50, "serve latency")
    print(
        f"  serve: {n_open} open-loop requests at {RATE:.0f}/s, generator lag "
        f"max {max(lags):.2f} ms; capacity {capacity:.0f} req/s, closed-loop "
        f"rate {statistics.median(rates):.0f} req/s (raw)"
    )
    normalize(out, setup_cal, cal, setup_s, capacity, p50)


def _install(setup: Setup, clock: SpanClock, tally: Tally) -> list:
    """Wrap the trunk, head, head index and handler; returns the dispatch log.

    The log holds ``(dispatch time, rows)`` per batch.  Requests leave the
    queue in submission order, so the log maps each request to its batch.
    """
    server = setup.server
    wrap_attr(setup.model, "trunk_forward", clock, "serve.trunk")
    wrap_attr(server.head, "topk", clock, "serve.head")
    install_lsh(server.head.index, clock, tally)
    dispatches = []
    handle = server.batcher.handler

    def handler(batch):
        dispatches.append((time.perf_counter(), len(batch)))
        return handle(batch)

    server.batcher.handler = handler
    wrap_attr(server.batcher, "handler", clock, "serve.handler")
    return dispatches


def _queue_waits_ms(requests, dispatches) -> List[float]:
    starts = np.repeat([t for t, _ in dispatches], [n for _, n in dispatches])
    return [
        (start - request.enqueued_at) * 1e3
        for start, request in zip(starts, requests)
    ]


def run_traced(seed: int, seconds: float, out: Outcome) -> None:
    """A fixed schedule, untraced then traced; per-layer metrics."""
    values = out.values
    setup = Setup(seed, TRACED_OPEN)
    try:
        latency_ms, lag_ms, _, answers, failed = open_loop(
            setup.server, setup.xs, setup.schedule
        )
        out.ops(TRACED_OPEN, failed, "serve: open-loop requests shed, failed or late")
        recall = check_answers(out, setup, answers)
        capacity_a, _, closed_failed = closed_loop(setup, TRACED_CLOSED)
        out.ops(TRACED_CLOSED, closed_failed, "serve: closed-loop requests failed")
    finally:
        setup.close()
    values.update({
        "setup.data_s": setup.data_s,
        "setup.model_s": setup.model_s,
        "setup.server_s": setup.server_s,
        "setup.warmup_s": setup.warmup_s,
        "serve.latency_ms.p50": require_percentile(latency_ms, 50, "serve latency"),
        "serve.latency_ms.p99": require_percentile(latency_ms, 99, "serve latency"),
        "serve.generator_lag_ms.p99": require_percentile(lag_ms, 99, "generator lag"),
        "serve.capacity_qps": capacity_a,
        "serve.recall_at_k": recall,
    })

    recorder = InMemoryRecorder()
    clock = SpanClock()
    backend = InstrumentedBackend(
        TimingBackend(get_backend(default_backend_name()), clock), recorder
    )
    setup = Setup(seed, TRACED_OPEN, backend=backend, recorder=recorder)
    try:
        clock.reset()
        before = counters(recorder)
        tally = Tally()
        dispatches = _install(setup, clock, tally)
        _, _, requests, answers, failed = open_loop(
            setup.server, setup.xs, setup.schedule
        )
        out.check(failed == 0, f"serve: {failed} traced requests shed, failed or late")
        after = counters(recorder)
        counts = {k: after[k] - before.get(k, 0) for k in after}
        waits = _queue_waits_ms(requests, dispatches)
        handler_s = clock.total_s("serve.handler")
        batches = clock.calls("serve.handler")
        values.update(shared_metrics(clock, counts, tally, 0))
        values.update({
            "lsh.share": clock.self_s("lsh") / handler_s,
            "serve.queue_wait_ms.p50": require_percentile(waits, 50, "queue wait"),
            "serve.queue_wait_ms.p99": require_percentile(waits, 99, "queue wait"),
            "serve.trunk_ms_per_batch": clock.total_s("serve.trunk") * 1e3 / batches,
            "serve.head_ms_per_batch": clock.total_s("serve.head") * 1e3 / batches,
            "serve.batch_rows_mean": float(np.mean([n for _, n in dispatches])),
        })
        capacity_b, _, _ = closed_loop(setup, TRACED_CLOSED)
    finally:
        setup.close()
    values["obs.trace_overhead"] = capacity_a / capacity_b - 1
    print(
        f"  serve: p99 {values['serve.latency_ms.p99']:.2f} ms, queue wait p99 "
        f"{values['serve.queue_wait_ms.p99']:.2f} ms, {batches} batches of "
        f"{values['serve.batch_rows_mean']:.1f} rows, lsh share of handler "
        f"{values['lsh.share']:.2f}"
    )
