"""stream-drift: continual ALSH training on a drifting stream.

The setup is ``BENCH_stream.json``'s drift configuration, built by the
public ``make_stream_trainer``: ALSH in union mode at width 128,
drift-triggered re-hashing, gauge-driven compaction.  Periodic held-out
evaluation is off: it is per-sample ALSH inference, not streaming, and
took a fifth of the time.  Recall@k is measured after the timed segment
with the program's ``LSHRecallProbe`` (a probe manager fires only under a
live recorder, which would make the untraced and traced runs do different
work).
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.backend import InstrumentedBackend, default_backend_name, get_backend, use_backend
from repro.obs import InMemoryRecorder
from repro.obs.probes import LSHRecallProbe
from repro.obs.timeseries import SERIES_LSH_RECALL, SERIES_STREAM_GARBAGE, layer_series
from repro.stream.bench import COUNT_EVERY, MODEL_SHAPE
from repro.stream.trainer import make_stream_trainer

from .calibrate import Calibrator, normalize
from .layers import Tally, install_lsh, install_optimizer, shared_metrics
from .outcome import Outcome, counters, median_setup, weights_digest
from .spans import (
    SpanClock,
    StepLog,
    TimingBackend,
    abba,
    log_steps,
    trace_steps,
    wrap_attr,
)
from .stats import require_percentile

__all__ = ["run_untraced", "run_traced"]

WARMUP_BATCHES = 200
CHUNK_BATCHES = 50  # batches per StreamTrainer.run call
SETUP_REPEATS = 5
TRACED_BATCHES = 1500  # a p99 of per-chunk cycles keeps ten samples beyond it
RECALL_K = 10
RECALL_QUERIES = 64
RECALL_FLOOR = 0.3
GARBAGE_CEILING = 0.8  # BENCH_stream's max_garbage gate


def build(seed: int, recorder=None):
    return make_stream_trainer(
        rebuild="drift",
        drift_threshold=0.04,
        drift_check_every=5,
        count_early_every=COUNT_EVERY,
        count_late_every=COUNT_EVERY,
        count_warmup=0,
        compact_garbage_frac=0.5,
        compact_check_every=10,
        eval_every=None,
        seed=seed,
        recorder=recorder,
        **MODEL_SHAPE,
    )


def _warm(st) -> None:
    st.run(WARMUP_BATCHES, resume=False)


def _advance(st, batches: int) -> float:
    start = time.perf_counter()
    st.run(st.batches_done + batches, resume=False)
    return time.perf_counter() - start


def recall_at_k(st) -> float:
    """Mean LSH recall@k over hidden layers on fresh current-distribution rows."""
    x, y = st.stream.eval_batch(RECALL_QUERIES)
    recorder = InMemoryRecorder()
    LSHRecallProbe(k=RECALL_K, max_queries=RECALL_QUERIES).run(
        st.trainer, 0, x, y, np.random.default_rng(0), recorder
    )
    series = recorder.snapshot()["series"]
    return float(np.mean([
        series[layer_series(SERIES_LSH_RECALL, i + 1)][0][1]
        for i in range(len(st.trainer.indexes))
    ]))


def _check(out: Outcome, log: StepLog, recall: float, garbage: float) -> None:
    bad = sum(not math.isfinite(loss) for loss in log.results)
    out.ops(len(log.results), bad, "stream: non-finite training loss")
    out.check(recall >= RECALL_FLOOR, f"stream: recall@{RECALL_K} {recall:.3f} "
              f"below {RECALL_FLOOR}")
    out.check(garbage <= GARBAGE_CEILING,
              f"stream: garbage fraction {garbage:.3f} above {GARBAGE_CEILING}")


def run_untraced(seed: int, seconds: float, out: Outcome) -> None:
    """Stream for the time budget; end-to-end metrics."""

    def setup():
        st = build(seed)
        _warm(st)
        return st

    setup_cal, cal = Calibrator(), Calibrator()
    setup_s, st = median_setup(
        setup, SETUP_REPEATS, between=setup_cal.slices_before_build
    )
    cal.run_slice()
    log = StepLog()
    log_steps(st.trainer, "train_batch", log)
    elapsed = 0.0
    garbage = 0.0
    start_samples = st.samples_done
    while elapsed < seconds:
        log.mark()
        elapsed += _advance(st, CHUNK_BATCHES)
        garbage = max(garbage, st.garbage_fraction())
        cal.tick()
    recall = recall_at_k(st)
    _check(out, log, recall, garbage)
    samples = st.samples_done - start_samples
    print(
        f"  stream: {len(log.results)} batches in {elapsed:.2f}s, recall@"
        f"{RECALL_K} {recall:.3f}, rebuilds {st.rebuilds}, compactions "
        f"{st.compactions}, garbage max {garbage:.3f}"
    )
    normalize(
        out, setup_cal, cal, setup_s, samples / elapsed,
        require_percentile(log.cycles_ms(), 50, "stream"),
    )


def run_traced(seed: int, seconds: float, out: Outcome) -> None:
    """A fixed number of batches, untraced and traced; per-layer metrics.

    The two stream trainers come from the same seed and advance in ABBA
    order (see :func:`abba`), each under its own backend scope (the traced
    one behind the timing proxy), so they differ only by the tracing.
    """
    values = out.values
    raw = get_backend(default_backend_name())
    t0 = time.perf_counter()
    plain_st = build(seed)
    t1 = time.perf_counter()
    with use_backend(raw):
        _warm(plain_st)
    values["setup.model_s"] = t1 - t0
    values["setup.warmup_s"] = time.perf_counter() - t1
    plain = StepLog()
    log_steps(plain_st.trainer, "train_batch", plain)

    recorder = InMemoryRecorder()
    clock = SpanClock()
    st = build(seed, recorder=recorder)
    backend = st.trainer.compute_backend = InstrumentedBackend(
        TimingBackend(raw, clock), recorder
    )
    with use_backend(backend):
        _warm(st)
    clock.reset()
    before = counters(recorder)
    rebuilds, compactions = st.rebuilds, st.compactions
    log = StepLog()
    tally = Tally()
    trace_steps(st.trainer, "train_batch", log, clock, "core.train_batch")
    install_optimizer(st.trainer, clock)
    for index in st.trainer.indexes:
        install_lsh(index, clock, tally)
    wrap_attr(st.stream, "next_batch", clock, "data.next_batch")
    first_batch = st.batches_done
    wall_a = wall_b = 0.0
    for traced in abba(TRACED_BATCHES // CHUNK_BATCHES):
        if traced:
            log.mark()
            with use_backend(backend):
                wall_b += _advance(st, CHUNK_BATCHES)
        else:
            with use_backend(raw):
                wall_a += _advance(plain_st, CHUNK_BATCHES)
    after = counters(recorder)
    counts = {k: after[k] - before.get(k, 0) for k in after}
    garbage = max(
        (v for i, v in recorder.snapshot()["series"].get(SERIES_STREAM_GARBAGE, [])
         if i > first_batch),
        default=0.0,
    )
    values.update(shared_metrics(clock, counts, tally, TRACED_BATCHES))
    cycles = log.cycles_ms()
    samples = TRACED_BATCHES * MODEL_SHAPE["batch_size"]
    values.update({
        "alsh.samples_per_s": samples / wall_a,
        "core.alsh.step_ms.p50": require_percentile(log.durations_ms(), 50, "stream"),
        "core.alsh.step_ms.p90": require_percentile(log.durations_ms(), 90, "stream"),
        "core.alsh.self_share": clock.self_s("core") / wall_b,
        "backend.alsh.share": clock.self_s("backend") / wall_b,
        "optim.alsh.share": clock.self_s("optim") / wall_b,
        "flops.alsh.actual_over_dense": counts["flops.actual"] / counts["flops.dense"],
        "mem.alsh.gather_bytes_per_sample": counts.get("mem.gather_bytes", 0) / samples,
        "lsh.share": clock.self_s("lsh") / wall_b,
        "data.share": clock.self_s("data") / wall_b,
        "stream.batch_ms.p50": require_percentile(cycles, 50, "stream"),
        "stream.batch_ms.p99": require_percentile(cycles, 99, "stream"),
        "stream.rebuilds": st.rebuilds - rebuilds,
        "stream.compactions": st.compactions - compactions,
        "stream.garbage_frac_max": garbage,
        "obs.trace_overhead": wall_b / wall_a - 1,
    })
    # Checks run after the metrics are read: the recall probe queries the
    # (still wrapped) indexes.
    recall = values["stream.recall_at_k"] = recall_at_k(plain_st)
    _check(out, plain, recall, garbage)
    out.check(plain.results == log.results,
              "stream: traced and untraced per-batch losses differ")
    out.check(weights_digest(st.trainer.net) == weights_digest(plain_st.trainer.net),
              "stream: traced and untraced weights differ")
    out.check(all(sum(s.values()) <= 1 + 1e-9 for s in log.shares),
              "stream: per-step layer shares sum above 1")
    print(
        f"  stream: traced shares core {values['core.alsh.self_share']:.2f} "
        f"backend {values['backend.alsh.share']:.2f} optim "
        f"{values['optim.alsh.share']:.2f} lsh {values['lsh.share']:.2f} "
        f"data {values['data.share']:.2f}"
    )
