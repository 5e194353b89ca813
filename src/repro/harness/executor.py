"""Multiprocess fault-tolerant experiment executor.

The paper's feasibility claims (§9.2, §10.4) rest on multi-core execution,
and the full evaluation grid — methods × datasets × depths × batch sizes —
is hours of compute even at miniature scale.  This module runs that grid
for real: it fans a sweep of :class:`~repro.harness.config.ExperimentConfig`
(or arbitrary picklable task specs) out across a ``ProcessPoolExecutor``,
with the fault tolerance a long unattended run needs:

* **Deterministic per-task seeds.**  Seeds are derived from a root seed via
  ``np.random.SeedSequence.spawn`` indexed by *task position*, never by
  worker identity or scheduling order, so a parallel run is bitwise
  identical to the serial run of the same sweep (wall-clock fields aside).
* **Per-task timeouts.**  Enforced inside the worker with ``SIGALRM`` where
  available (the worker survives and moves on to the next task), with a
  parent-side deadline as a backup; a timed-out task is recorded as failed
  without aborting the sweep.
* **Bounded retry with exponential backoff.**  A task that raises is
  retried up to ``retries`` times; every failed attempt is recorded in the
  sink, never swallowed.
* **Graceful degradation.**  ``max_workers=1`` — or a platform where a
  process pool cannot be created — runs the identical code path serially
  in-process.
* **Incremental JSONL sink.**  Terminal outcomes (and intermediate retry
  records) stream to an append-only JSONL file; a crashed run re-invoked
  with ``resume=True`` skips every task whose ``ok`` record is already on
  disk, re-running only failures and never-started work.  It is the one
  store of finished experiments: ``Sweep.run`` and ``run --store`` write
  the same records.
"""

from __future__ import annotations

import json
import signal
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..data.datasets import Dataset
from ..obs import (
    InMemoryRecorder,
    merge_snapshots,
    scan_jsonl,
    write_exposition,
    write_trace,
)
from .config import ExperimentConfig
from .experiment import ExperimentResult, run_experiment
from .results import result_from_dict, result_to_dict

__all__ = [
    "TaskOutcome",
    "JsonlSink",
    "ExperimentExecutor",
    "ExecutorError",
    "ExperimentTask",
    "derive_task_seeds",
    "task_key",
    "aggregate_traces",
]


class ExecutorError(RuntimeError):
    """Raised when a sweep finishes with unrecoverable task failures."""


def derive_task_seeds(base_seed: int, n: int) -> List[int]:
    """``n`` independent task seeds derived from one root seed.

    Uses ``SeedSequence.spawn`` so the seeds are statistically independent
    and a function of *task index only* — the same sweep gets the same
    seeds whether it runs on 1 worker or 64, in any completion order.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    children = np.random.SeedSequence(base_seed).spawn(n)
    return [int(c.generate_state(1, dtype=np.uint32)[0]) for c in children]


def task_key(task: Any) -> str:
    """Stable identity string for a task (resume matching).

    :class:`ExperimentConfig` uses its own :meth:`~ExperimentConfig.key`;
    anything else is keyed by its canonical JSON (falling back to ``repr``
    for non-JSON values).
    """
    if isinstance(task, ExperimentConfig):
        return task.key()
    return json.dumps(task, sort_keys=True, default=repr)


class ExperimentTask:
    """Picklable task function: one :func:`run_experiment` call per config.

    The default instance is the executor's default ``task_fn``.

    * ``checkpoint_dir`` checkpoints every run's trainer there, every
      ``checkpoint_every`` epochs (default 1), under its config's
      :meth:`~repro.harness.config.ExperimentConfig.checkpoint_tag` — so
      a task killed by the per-task timeout (or a worker crash) resumes
      from its last completed checkpoint on the next attempt instead of
      starting over from epoch 0.  Combined with ``retry_timeouts=True``
      this turns the timeout budget into forward progress: a task only
      needs to fit ``checkpoint_every`` epochs per attempt to finish.
    * ``traced`` gives every run its own :class:`~repro.obs.InMemoryRecorder`,
      so no cross-process synchronisation is needed; the snapshot rides
      back inside ``ExperimentResult.trace`` (and therefore through the
      JSONL sink), where :func:`aggregate_traces` can merge the sweep.
    * ``probe_every`` (requires ``traced``) attaches the default quality
      probes at that batch cadence (see
      :func:`repro.harness.experiment.run_experiment`).
    """

    def __init__(
        self,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        traced: bool = False,
        probe_every: Optional[int] = None,
    ):
        if checkpoint_every is not None:
            if checkpoint_dir is None:
                raise ValueError("checkpoint_every requires checkpoint_dir")
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be positive, got {checkpoint_every}"
                )
        if probe_every is not None:
            if not traced:
                raise ValueError(
                    "probe_every requires traced=True (probes only do work "
                    "with a recorder attached)"
                )
            if probe_every < 1:
                raise ValueError(f"probe_every must be >= 1, got {probe_every}")
        self.checkpoint_dir = None if checkpoint_dir is None else str(checkpoint_dir)
        self.checkpoint_every = checkpoint_every
        self.traced = bool(traced)
        self.probe_every = probe_every

    def __call__(self, config: ExperimentConfig, dataset: Optional[Dataset]):
        return run_experiment(
            config,
            dataset=dataset,
            recorder=InMemoryRecorder() if self.traced else None,
            checkpoint_every=self.checkpoint_every,
            checkpoint_dir=self.checkpoint_dir,
            probe_every=self.probe_every,
        )


def aggregate_traces(outcomes: Sequence["TaskOutcome"]) -> Optional[dict]:
    """Merged trace snapshot across a sweep's usable outcomes.

    Counters sum, gauges keep their high-water mark, timings and spans sum
    count and total — see :func:`repro.obs.merge_snapshots`.  Returns None
    when no outcome carries a trace.
    """
    snapshots = [
        outcome.result.trace
        for outcome in outcomes
        if outcome.ok and isinstance(outcome.result, ExperimentResult)
    ]
    if not any(snapshots):
        return None
    return merge_snapshots(snapshots)


@dataclass
class TaskOutcome:
    """Terminal state of one task in a sweep.

    ``status`` is ``"ok"`` (ran and returned), ``"cached"`` (skipped via
    resume, ``result`` decoded from the sink), ``"error"`` (raised on every
    allowed attempt) or ``"timeout"`` (exceeded the per-task budget).
    """

    index: int
    key: str
    status: str
    result: Any = None
    error: Optional[str] = None
    attempts: int = 0
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        """True when a usable result is attached."""
        return self.status in ("ok", "cached")


# ----------------------------------------------------------------------
# result (de)serialisation for the sink
# ----------------------------------------------------------------------
def _encode_result(result: Any) -> Any:
    if result is None:
        return None
    if isinstance(result, ExperimentResult):
        return {"kind": "experiment", "payload": result_to_dict(result)}
    try:
        json.dumps(result)
    except (TypeError, ValueError):
        return {"kind": "repr", "payload": repr(result)}
    return {"kind": "json", "payload": result}


def _decode_result(encoded: Any) -> Any:
    if encoded is None:
        return None
    if encoded["kind"] == "experiment":
        return result_from_dict(encoded["payload"])
    return encoded["payload"]


class JsonlSink:
    """Append-only JSONL log of task outcomes — successes *and* failures.

    The one store of finished experiments: the executor, :class:`Sweep
    <repro.harness.sweeps.Sweep>` and ``run --store`` all write
    :meth:`append_outcome` records, so each resumes from the others'
    files.  One record per line; a crash mid-write loses at most the
    final line (:meth:`load` skips a truncated trailing record), so a
    sweep can always resume from what reached disk.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def append(self, record: Dict[str, Any]) -> None:
        """Append one JSON-safe record."""
        write_trace(self.path, record)

    def append_outcome(self, outcome: TaskOutcome) -> None:
        """Append the record of one terminal outcome."""
        self.append(
            {
                "key": outcome.key,
                "index": outcome.index,
                "status": outcome.status,
                "attempts": outcome.attempts,
                "duration": outcome.duration,
                "error": outcome.error,
                "result": _encode_result(outcome.result),
            }
        )

    def load(self) -> List[Dict[str, Any]]:
        """All intact records (empty if the file does not exist)."""
        if not self.path.exists():
            return []
        return scan_jsonl(self.path)[0]

    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Latest ``ok`` record per task key (what resume can skip)."""
        done = {}
        for record in self.load():
            if "status" not in record and "config" in record:
                record = _legacy_outcome(record)
            if record is not None and record.get("status") == "ok":
                done[record["key"]] = record
        return done


def _legacy_outcome(payload: dict) -> Optional[Dict[str, Any]]:
    """The ``ok`` record for a bare result line of the removed ``ResultStore``.

    Such lines were written by ``run --store`` and ``Sweep.run`` before
    both moved onto this sink.  A line whose config ran on the removed
    ``fast`` backend matches no config (None), like the sink's own
    records of such runs.
    """
    try:
        config = result_from_dict(payload).config
    except ValueError:
        return None
    return {
        "key": config.key(),
        "status": "ok",
        "result": {"kind": "experiment", "payload": payload},
    }


# ----------------------------------------------------------------------
# worker-side execution
# ----------------------------------------------------------------------
class _TaskTimeout(Exception):
    pass


def _raise_task_timeout(signum, frame):
    raise _TaskTimeout()


def _execute(
    task_fn: Callable[[Any, Any], Any],
    task: Any,
    dataset: Any,
    timeout: Optional[float],
):
    """Run one task, converting exceptions and timeouts to picklable data.

    Returns ``(status, payload, duration)`` where payload is the result for
    ``"ok"`` and a message/traceback string otherwise.  The timeout is
    enforced with ``SIGALRM`` when running in a main thread on a platform
    that has it; otherwise enforcement falls back to the parent's deadline.
    """
    start = time.perf_counter()
    use_alarm = timeout is not None and hasattr(signal, "SIGALRM")
    old_handler = None
    if use_alarm:
        try:
            old_handler = signal.signal(signal.SIGALRM, _raise_task_timeout)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        except ValueError:  # not in the main thread
            use_alarm = False
    try:
        result = task_fn(task, dataset)
        return ("ok", result, time.perf_counter() - start)
    except _TaskTimeout:
        return (
            "timeout",
            f"task exceeded its {timeout:g}s budget",
            time.perf_counter() - start,
        )
    except Exception:
        return ("error", traceback.format_exc(limit=20), time.perf_counter() - start)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
class ExperimentExecutor:
    """Fan tasks across worker processes with retries, timeouts and resume.

    Parameters
    ----------
    max_workers:
        Worker processes; ``1`` runs serially in-process (same semantics).
    timeout:
        Per-task wall-clock budget in seconds (None = unlimited).  Timed-out
        tasks are recorded as ``"timeout"`` and are not retried unless
        ``retry_timeouts`` is set.
    retries:
        How many times a task that *raises* is re-run (with backoff) before
        being recorded as ``"error"``.
    backoff:
        Base delay in seconds before a retry; doubles per attempt.
    retry_timeouts:
        When True, a task whose in-worker (``SIGALRM``) timeout fired is
        retried like an error, consuming the same ``retries`` budget.
        Pair with a checkpointing :class:`ExperimentTask` so each attempt
        resumes from the last checkpoint rather than repeating the same
        doomed run.  Parent-side deadline expiries (worker unresponsive)
        stay terminal either way — the worker may be stuck in native code
        and retrying against it would pile up abandoned processes.
    sink:
        Path or :class:`JsonlSink` receiving incremental outcome records.
    task_fn:
        ``task_fn(task, dataset) -> result``; must be picklable (a
        module-level function or an instance of a module-level class such
        as :class:`ExperimentTask`).  Defaults to ``ExperimentTask()``.
    metrics_path:
        File-based Prometheus exposition: after every terminal outcome
        (and once more when the sweep drains) the merged trace snapshot
        across all usable outcomes so far is rendered to this path as
        text-format metrics (atomic replace, so a scraper — or the
        textfile collector of a node exporter — never sees a torn file).
        Sweeps have no port to scrape; the file *is* the endpoint.
    """

    #: extra seconds the parent waits past ``timeout`` before declaring a
    #: task dead itself (covers platforms without SIGALRM).
    deadline_grace = 2.0

    def __init__(
        self,
        max_workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.1,
        retry_timeouts: bool = False,
        sink: Optional[Union[str, Path, JsonlSink]] = None,
        task_fn: Callable[[Any, Any], Any] = ExperimentTask(),
        metrics_path: Optional[Union[str, Path]] = None,
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        if backoff < 0:
            raise ValueError(f"backoff must be non-negative, got {backoff}")
        self.max_workers = int(max_workers)
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.retry_timeouts = bool(retry_timeouts)
        if sink is not None and not isinstance(sink, JsonlSink):
            sink = JsonlSink(sink)
        self.sink = sink
        self.task_fn = task_fn
        self.metrics_path = None if metrics_path is None else Path(metrics_path)

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[Any],
        dataset: Optional[Dataset] = None,
        resume: bool = False,
        reseed: Optional[int] = None,
        callback: Optional[Callable[[TaskOutcome], None]] = None,
    ) -> List[TaskOutcome]:
        """Run every task; returns outcomes in task order.

        ``reseed`` (tasks must be :class:`ExperimentConfig`) replaces each
        config's seed with one derived from the root seed by task index —
        see :func:`derive_task_seeds`.  ``resume`` skips tasks whose ``ok``
        record already exists in the sink (and therefore requires one —
        without a sink there is nothing to resume from, which raises
        ``ValueError`` rather than silently re-running everything).
        ``callback`` fires once per fresh terminal outcome, in completion
        order.
        """
        if resume and self.sink is None:
            raise ValueError(
                "resume=True requires a sink: completed work is matched "
                "against the sink's records, so without one there is "
                "nothing to resume from"
            )
        tasks = list(tasks)
        if reseed is not None:
            seeds = derive_task_seeds(reseed, len(tasks))
            tasks = [cfg.with_overrides(seed=s) for cfg, s in zip(tasks, seeds)]
        keys = [task_key(t) for t in tasks]
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)

        fresh: List[int] = []
        if resume and self.sink is not None:
            done = self.sink.completed()
            for i, key in enumerate(keys):
                if key in done:
                    record = done[key]
                    outcomes[i] = TaskOutcome(
                        index=i,
                        key=key,
                        status="cached",
                        result=_decode_result(record.get("result")),
                        attempts=int(record.get("attempts", 1)),
                        duration=float(record.get("duration", 0.0)),
                    )
                else:
                    fresh.append(i)
        else:
            fresh = list(range(len(tasks)))

        def export_metrics():
            if self.metrics_path is None:
                return
            landed = [o for o in outcomes if o is not None]
            aggregate = aggregate_traces(landed)
            snapshot = dict(aggregate) if aggregate else {}
            # Sweep progress rides along so a scraper can watch a sweep
            # with untraced tasks (or one that has not finished a task yet).
            gauges = dict(snapshot.get("gauges", {}))
            gauges["sweep.tasks"] = float(len(tasks))
            gauges["sweep.done"] = float(len(landed))
            gauges["sweep.failed"] = float(sum(not o.ok for o in landed))
            snapshot["gauges"] = gauges
            write_exposition(self.metrics_path, snapshot)

        def record(i: int, status: str, payload: Any, attempts: int, duration: float):
            outcome = TaskOutcome(
                index=i,
                key=keys[i],
                status=status,
                result=payload if status == "ok" else None,
                error=None if status == "ok" else payload,
                attempts=attempts,
                duration=duration,
            )
            outcomes[i] = outcome
            if self.sink is not None:
                self.sink.append_outcome(outcome)
            if callback is not None:
                callback(outcome)
            export_metrics()

        def record_retry(i: int, attempt: int, error: str):
            if self.sink is not None:
                self.sink.append(
                    {
                        "key": keys[i],
                        "index": i,
                        "status": "retry",
                        "attempts": attempt,
                        "error": error,
                    }
                )

        if fresh:
            if self.max_workers == 1:
                self._run_serial(tasks, fresh, dataset, record, record_retry)
            else:
                pool = self._make_pool()
                if pool is None:  # platform without process pools
                    self._run_serial(tasks, fresh, dataset, record, record_retry)
                else:
                    self._run_pool(pool, tasks, fresh, dataset, record, record_retry)
        export_metrics()
        return outcomes  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _make_pool(self) -> Optional[ProcessPoolExecutor]:
        try:
            return ProcessPoolExecutor(max_workers=self.max_workers)
        except (OSError, PermissionError, ImportError, NotImplementedError):
            return None

    def _backoff_delay(self, attempt: int) -> float:
        return self.backoff * (2 ** (attempt - 1))

    def _retryable(self, status: str) -> bool:
        """Whether a worker-reported failure status consumes a retry."""
        if status == "error":
            return True
        return status == "timeout" and self.retry_timeouts

    # ------------------------------------------------------------------
    def _run_serial(self, tasks, indices, dataset, record, record_retry):
        """In-process execution with identical retry/timeout semantics."""
        for i in indices:
            attempt = 0
            while True:
                attempt += 1
                status, payload, duration = _execute(
                    self.task_fn, tasks[i], dataset, self.timeout
                )
                if self._retryable(status) and attempt <= self.retries:
                    record_retry(i, attempt, payload)
                    time.sleep(self._backoff_delay(attempt))
                    continue
                record(i, status, payload, attempt, duration)
                break

    # ------------------------------------------------------------------
    def _run_pool(self, pool, tasks, indices, dataset, record, record_retry):
        """Pool execution: submit, collect, retry, enforce deadlines.

        Owns the pool's lifetime (it may be rebuilt after a hard worker
        crash); shuts the final pool down on exit without waiting on
        abandoned (timed-out) workers.
        """
        live = [pool]  # one-slot box so closures and the finally see rebuilds
        pending = deque(indices)
        attempts = {i: 0 for i in indices}
        retry_at: Dict[int, float] = {}
        in_flight: Dict[Any, tuple] = {}  # future -> (index, submit time)

        def submit(i: int):
            attempts[i] += 1
            fut = live[0].submit(
                _execute, self.task_fn, tasks[i], dataset, self.timeout
            )
            in_flight[fut] = (i, time.monotonic())

        def rebuild_pool():
            live[0].shutdown(wait=False, cancel_futures=True)
            rebuilt = self._make_pool()
            if rebuilt is None:
                raise ExecutorError("process pool died and could not be rebuilt")
            live[0] = rebuilt

        # Join the pool only on a clean drain: if a future was abandoned
        # (parent-side deadline, worker possibly hung) or the loop aborted
        # mid-flight, waiting could block on a stuck task.  Skipping the
        # join races with concurrent.futures' atexit hook (a harmless but
        # noisy "Bad file descriptor" traceback), so prefer it when safe.
        wait_on_exit = False
        try:
            wait_on_exit = self._pool_loop(
                pending, attempts, retry_at, in_flight,
                submit, rebuild_pool, record, record_retry,
            )
        finally:
            live[0].shutdown(wait=wait_on_exit, cancel_futures=True)

    def _pool_loop(
        self, pending, attempts, retry_at, in_flight,
        submit, rebuild_pool, record, record_retry,
    ):
        abandoned = 0
        while pending or in_flight or retry_at:
            now = time.monotonic()
            for i, ready in list(retry_at.items()):
                if now >= ready:
                    pending.append(i)
                    del retry_at[i]
            while pending and len(in_flight) < 2 * self.max_workers:
                submit(pending.popleft())
            if not in_flight:
                if retry_at:
                    time.sleep(
                        max(min(retry_at.values()) - time.monotonic(), 0.01)
                    )
                continue

            wait_timeout = None
            if self.timeout is not None:
                next_deadline = min(
                    start + self.timeout + self.deadline_grace
                    for _, start in in_flight.values()
                )
                wait_timeout = max(next_deadline - time.monotonic(), 0.0)
            if retry_at:
                next_retry = max(min(retry_at.values()) - time.monotonic(), 0.0)
                wait_timeout = (
                    next_retry if wait_timeout is None
                    else min(wait_timeout, next_retry)
                )
            done, _ = wait(
                set(in_flight), timeout=wait_timeout, return_when=FIRST_COMPLETED
            )

            if not done and self.timeout is not None:
                # Parent-side deadline: the worker never reported back
                # (no SIGALRM, or it is stuck in native code).  Record the
                # timeout and abandon the future; its late result, if any,
                # is discarded when the pool shuts down.
                now = time.monotonic()
                for fut, (i, start) in list(in_flight.items()):
                    if now >= start + self.timeout + self.deadline_grace:
                        fut.cancel()
                        del in_flight[fut]
                        abandoned += 1
                        record(
                            i,
                            "timeout",
                            f"no response within {self.timeout:g}s "
                            "(worker unresponsive)",
                            attempts[i],
                            now - start,
                        )
                continue

            for fut in done:
                i, start = in_flight.pop(fut)
                try:
                    status, payload, duration = fut.result()
                except BrokenProcessPool:
                    # A worker died hard (segfault / os._exit), which
                    # poisons the whole pool: rebuild it and retry every
                    # in-flight task.  All of them consume an attempt —
                    # the actual culprit is unattributable.
                    crashed = [i] + [idx for idx, _ in in_flight.values()]
                    in_flight.clear()
                    rebuild_pool()
                    for idx in crashed:
                        message = "worker process died (BrokenProcessPool)"
                        if attempts[idx] <= self.retries:
                            record_retry(idx, attempts[idx], message)
                            retry_at[idx] = (
                                time.monotonic()
                                + self._backoff_delay(attempts[idx])
                            )
                        else:
                            record(idx, "error", message, attempts[idx], 0.0)
                    break  # in_flight changed; restart the loop
                except Exception:  # pragma: no cover - defensive
                    status, duration = "error", time.monotonic() - start
                    payload = traceback.format_exc(limit=20)
                if self._retryable(status) and attempts[i] <= self.retries:
                    record_retry(i, attempts[i], payload)
                    retry_at[i] = time.monotonic() + self._backoff_delay(attempts[i])
                else:
                    record(i, status, payload, attempts[i], duration)
        return abandoned == 0
