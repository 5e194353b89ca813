"""Stream suite of ``python -m repro bench``: throughput and recall under drift.

Three maintenance policies on one seeded stream/model pair: the paper's
fixed count-based rebuild schedule, drift-triggered rebuilds from the
:mod:`repro.lsh.drift` detector, and no rebuilds at all (the decay
baseline).  Every configuration trains the same ALSH network on the same
drifting prototype stream with a read-only LSH recall probe riding along
and gauge-driven flat-backend compaction on, and records steady-state
samples/sec (a warm-up segment is excluded from timing), recall-under-
drift (mean probed LSH recall@k over the steady-state half), held-out
accuracy on the current distribution, rebuild events, re-hashed columns
and the worst observed garbage fraction.

The records go to ``BENCH_stream.json``.  The gate fails when
drift-triggered rebuilds lose to the count schedule on recall (beyond
``RECALL_EPS``), need *more* rebuild events, or fall below
``MIN_THROUGHPUT_RATIO`` of its throughput; when recall-under-drift
drops below ``MIN_RECALL``; when the garbage fraction exceeds
``MAX_GARBAGE`` (the update path must stay bounded under sustained
churn); or when fewer than ``MIN_UPDATES`` items (``MIN_UPDATES_QUICK``
in a quick run) went through the update path, so the suite must
actually exercise it.  Each record carries its obs snapshot for
``--store``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..obs import InMemoryRecorder
from ..obs.probes import LSHRecallProbe, ProbeManager
from ..obs.timeseries import (
    SERIES_LSH_RECALL,
    SERIES_STREAM_GARBAGE,
    layer_series,
)
from .trainer import make_stream_trainer

#: one stream/model pair shared by every policy: a 2-hidden-layer ALSH
#: net on a drifting prototype stream.  Width 128 keeps per-layer tables
#: big enough that re-hash pressure is real while a full three-policy
#: run stays in CI budget.
MODEL_SHAPE = {
    "dim": 32,
    "n_classes": 8,
    "width": 128,
    "depth": 2,
    "batch_size": 20,
    "drift_per_batch": 0.02,
    # lr high enough that the weight columns genuinely move under drift
    # — the whole point of the bench is stale tables hurting recall —
    # and L=10 tables for a recall operating point where policy
    # differences are visible above the probe's noise floor.
    "lr": 0.01,
    "n_tables": 10,
}

#: the fixed schedule is held at the paper's early-phase cadence (one
#: refresh per 100 samples) for the whole run: under never-ending drift
#: the late-phase 1000-sample back-off just lets tables go stale, which
#: would make the fixed-schedule baseline trivially easy to beat.
COUNT_EVERY = 100

PROBE_EVERY = 20  # batches between recall probes

HEADER = {"model": dict(MODEL_SHAPE), "count_every": COUNT_EVERY}
TRACE_KEY = "stream-bench"
K = 10  # recall@k size for the LSH probe
SEED = 0
MIN_RECALL = 0.4  # recall-under-drift floor for gated policies
RECALL_EPS = 0.02  # slack when comparing drift vs count recall
MIN_THROUGHPUT_RATIO = 0.8  # drift/count samples/s; a >20% regression fails
MAX_GARBAGE = 0.8  # worst tolerated flat-backend garbage fraction
MIN_UPDATES = 100_000  # items through the update path across gated configs
MIN_UPDATES_QUICK = 2000


def configs(quick: bool) -> List[Dict]:
    """The three policy configurations; ``quick`` shrinks the stream."""
    batches = 600 if quick else 8000
    warmup = 50 if quick else 400
    grid = []
    for policy in ("count", "drift", "none"):
        grid.append({
            "policy": policy,
            "batches": batches,
            "warmup": warmup,
            # count vs drift is the gated comparison; "none" is the
            # decay baseline kept for the trajectory file.
            "gate": policy in ("count", "drift"),
        })
    return grid


def config_key(config: Dict) -> str:
    return f"stream-bench:{config['policy']}"


def _series_mean_tail(snapshot: Dict, name: str, tail_frac: float = 0.5) -> Optional[float]:
    points = snapshot.get("series", {}).get(name)
    if not points:
        return None
    values = [v for _, v in points]
    tail = values[max(1, int(len(values) * (1 - tail_frac))) - 1:]
    return float(np.mean(tail))


def _series_max(snapshot: Dict, name: str) -> Optional[float]:
    points = snapshot.get("series", {}).get(name)
    if not points:
        return None
    return float(max(v for _, v in points))


def bench_config(config: Dict) -> Dict:
    """Stream one policy configuration; returns a record."""
    recorder = InMemoryRecorder()
    probes = ProbeManager(
        [LSHRecallProbe(k=K, max_queries=4)],
        probe_every=PROBE_EVERY,
        budget=None,  # deterministic: never self-disable mid-bench
        seed=SEED + 7,
    )
    st = make_stream_trainer(
        rebuild=config["policy"],
        drift_threshold=0.04,
        drift_check_every=5,  # 100-sample cadence — matches COUNT_EVERY
        count_early_every=COUNT_EVERY,
        count_late_every=COUNT_EVERY,
        count_warmup=0,
        compact_garbage_frac=0.5,
        compact_check_every=10,
        eval_every=PROBE_EVERY * 5,
        eval_samples=200,
        probe_manager=probes,
        seed=SEED,
        recorder=recorder,
        **MODEL_SHAPE,
    )
    st.run(config["warmup"], resume=False)  # excluded from timing
    outcome = st.run(config["batches"], resume=False)
    snapshot = recorder.snapshot()
    depth = MODEL_SHAPE["depth"]
    recalls = [
        _series_mean_tail(snapshot, layer_series(SERIES_LSH_RECALL, i + 1))
        for i in range(depth)
    ]
    recalls = [r for r in recalls if r is not None]
    accs = [acc for _, acc in outcome["eval_history"]]
    tail_accs = accs[len(accs) // 2:]
    record = dict(config)
    record.update({
        "k": K,
        "samples": outcome["samples"],
        "samples_per_s": outcome["samples_per_s"],
        "elapsed_s": outcome["elapsed_s"],
        "recall_at_k": float(np.mean(recalls)) if recalls else None,
        "accuracy": float(np.mean(tail_accs)) if tail_accs else None,
        "rebuilds": outcome["rebuilds"],
        "rehashed_columns": st.trainer.rehashed_columns,
        "rehashed_items": snapshot["counters"].get("lsh.rehashed_items", 0),
        "compactions": outcome["compactions"],
        "backend_compactions": sum(
            ix.index.compactions for ix in st.trainer.indexes
        ),
        "garbage_frac_max": _series_max(snapshot, SERIES_STREAM_GARBAGE) or 0.0,
        "garbage_frac_final": outcome["garbage_frac"],
    })
    record["_snapshot"] = snapshot
    return record


def run(configs: Sequence[Dict]) -> Iterator[Dict]:
    """Benchmark every policy on the identically seeded stream/model."""
    for config in configs:
        yield bench_config(config)


def summary(record: Dict) -> str:
    recall, acc = record["recall_at_k"], record["accuracy"]
    return (
        f"{config_key(record)}: {record['samples_per_s']:.0f} samples/s, "
        f"recall@{record['k']} "
        f"{'n/a' if recall is None else f'{recall:.3f}'}, "
        f"acc {'n/a' if acc is None else f'{acc:.3f}'}, "
        f"{record['rebuilds']} rebuilds, "
        f"{record['rehashed_items']} items re-hashed, "
        f"garbage max {record['garbage_frac_max']:.3f}"
    )


def gate(records: Sequence[Dict], quick: bool) -> List[str]:
    """Regression gates for the drift-vs-count policy comparison."""
    failures = []
    by_policy = {r["policy"]: r for r in records}
    count, drift = by_policy.get("count"), by_policy.get("drift")
    if count and drift:
        c_recall, d_recall = count["recall_at_k"], drift["recall_at_k"]
        if c_recall is not None and d_recall is not None:
            if d_recall < c_recall - RECALL_EPS:
                failures.append(
                    f"stream-bench:drift: recall {d_recall:.3f} below the "
                    f"count schedule's {c_recall:.3f} (eps {RECALL_EPS})"
                )
        if drift["rebuilds"] > count["rebuilds"]:
            failures.append(
                f"stream-bench:drift: {drift['rebuilds']} rebuild events "
                f"exceed the count schedule's {count['rebuilds']}"
            )
        ratio = drift["samples_per_s"] / max(count["samples_per_s"], 1e-12)
        if ratio < MIN_THROUGHPUT_RATIO:
            failures.append(
                f"stream-bench:drift: throughput {ratio:.2f}x the count "
                f"schedule (need >= {MIN_THROUGHPUT_RATIO:.2f}x)"
            )
    for record in records:
        if not record.get("gate"):
            continue
        recall = record["recall_at_k"]
        if recall is not None and recall < MIN_RECALL:
            failures.append(
                f"{config_key(record)}: recall@{record['k']} {recall:.3f} "
                f"below the {MIN_RECALL:.2f} floor"
            )
        if record["garbage_frac_max"] > MAX_GARBAGE:
            failures.append(
                f"{config_key(record)}: garbage fraction peaked at "
                f"{record['garbage_frac_max']:.3f} (> {MAX_GARBAGE:.2f}) — "
                "update path not bounded"
            )
    min_updates = MIN_UPDATES_QUICK if quick else MIN_UPDATES
    streamed = sum(r["rehashed_items"] for r in records if r.get("gate"))
    if streamed < min_updates:
        failures.append(
            f"stream-bench: only {streamed} items streamed through the "
            f"update path across gated configs (need >= {min_updates})"
        )
    return failures
