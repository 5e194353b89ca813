"""Streaming benchmark: steady-state throughput and recall under drift.

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

``BENCH_stream.json`` is the perf-trajectory file; under ``--check`` the
run fails when drift-triggered rebuilds lose to the count schedule on
recall (beyond ``--recall-eps``), need *more* rebuild events, fall below
``--min-throughput-ratio`` of its throughput, when recall-under-drift
drops below ``--min-recall``, when the garbage fraction exceeds
``--max-garbage`` (the update path must stay bounded under sustained
churn), or when fewer than ``--min-updates`` items were streamed through
the update path (the bench must actually exercise it).

Runnable three ways: ``python benchmarks/bench_stream.py``,
``python -m repro stream-bench``, or :func:`run_configs`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..obs import InMemoryRecorder, merge_snapshots
from ..obs.probes import LSHRecallProbe, ProbeManager
from ..obs.timeseries import (
    SERIES_LSH_RECALL,
    SERIES_STREAM_GARBAGE,
    layer_series,
)
from .trainer import make_stream_trainer

__all__ = [
    "default_configs",
    "config_key",
    "bench_config",
    "run_configs",
    "check_records",
    "write_bench_json",
    "add_arguments",
    "run_cli",
    "main",
]

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


def default_configs(quick: bool = False) -> List[Dict]:
    """The three policy configurations; ``quick`` shrinks the stream."""
    batches = 600 if quick else 8000
    warmup = 50 if quick else 400
    configs = []
    for policy in ("count", "drift", "none"):
        configs.append({
            "policy": policy,
            "batches": batches,
            "warmup": warmup,
            # count vs drift is the gated comparison; "none" is the
            # decay baseline kept for the trajectory file.
            "gate": policy in ("count", "drift"),
        })
    return configs


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


def bench_config(config: Dict, seed: int = 0, k: int = 10) -> Dict:
    """Stream one policy configuration; returns a record."""
    recorder = InMemoryRecorder()
    probes = ProbeManager(
        [LSHRecallProbe(k=k, max_queries=4)],
        probe_every=PROBE_EVERY,
        budget=None,  # deterministic: never self-disable mid-bench
        seed=seed + 7,
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
        seed=seed,
        recorder=recorder,
        **MODEL_SHAPE,
    )
    st.run(config["warmup"], resume=False)  # excluded from timing
    summary = st.run(config["batches"], resume=False)
    snapshot = recorder.snapshot()
    depth = MODEL_SHAPE["depth"]
    recalls = [
        _series_mean_tail(snapshot, layer_series(SERIES_LSH_RECALL, i + 1))
        for i in range(depth)
    ]
    recalls = [r for r in recalls if r is not None]
    accs = [acc for _, acc in summary["eval_history"]]
    tail_accs = accs[len(accs) // 2:]
    record = dict(config)
    record.update({
        "k": k,
        "samples": summary["samples"],
        "samples_per_s": summary["samples_per_s"],
        "elapsed_s": summary["elapsed_s"],
        "recall_at_k": float(np.mean(recalls)) if recalls else None,
        "accuracy": float(np.mean(tail_accs)) if tail_accs else None,
        "rebuilds": summary["rebuilds"],
        "rehashed_columns": summary.get("rehashed_columns", 0),
        "rehashed_items": snapshot["counters"].get("lsh.rehashed_items", 0),
        "compactions": summary["compactions"],
        "backend_compactions": sum(
            ix.index.flat.compactions for ix in st.trainer.indexes
        ),
        "garbage_frac_max": _series_max(snapshot, SERIES_STREAM_GARBAGE) or 0.0,
        "garbage_frac_final": summary["garbage_frac"],
    })
    record["_snapshot"] = snapshot
    return record


def run_configs(
    configs: Sequence[Dict],
    seed: int = 0,
    k: int = 10,
    verbose: bool = True,
) -> List[Dict]:
    """Benchmark every policy on the identically seeded stream/model."""
    records = []
    for i, config in enumerate(configs):
        record = bench_config(config, seed=seed, k=k)
        records.append(record)
        if verbose:
            recall = record["recall_at_k"]
            acc = record["accuracy"]
            recall_s = f"{recall:.3f}" if recall is not None else "n/a"
            acc_s = f"{acc:.3f}" if acc is not None else "n/a"
            print(
                f"  [{i + 1}/{len(configs)}] {config_key(config)}: "
                f"{record['samples_per_s']:.0f} samples/s, "
                f"recall@{k} {recall_s}, acc {acc_s}, "
                f"{record['rebuilds']} rebuilds, "
                f"{record['rehashed_items']} items re-hashed, "
                f"garbage max {record['garbage_frac_max']:.3f}"
                f"{' [gate]' if config.get('gate') else ''}"
            )
    return records


def check_records(
    records: Sequence[Dict],
    min_recall: float = 0.4,
    recall_eps: float = 0.02,
    min_throughput_ratio: float = 0.8,
    max_garbage: float = 0.8,
    min_updates: int = 100_000,
) -> List[str]:
    """Regression gates for the drift-vs-count policy comparison."""
    failures = []
    by_policy = {r["policy"]: r for r in records}
    count, drift = by_policy.get("count"), by_policy.get("drift")
    if count and drift:
        c_recall, d_recall = count["recall_at_k"], drift["recall_at_k"]
        if c_recall is not None and d_recall is not None:
            if d_recall < c_recall - recall_eps:
                failures.append(
                    f"stream-bench:drift: recall {d_recall:.3f} below the "
                    f"count schedule's {c_recall:.3f} (eps {recall_eps})"
                )
        if drift["rebuilds"] > count["rebuilds"]:
            failures.append(
                f"stream-bench:drift: {drift['rebuilds']} rebuild events "
                f"exceed the count schedule's {count['rebuilds']}"
            )
        ratio = drift["samples_per_s"] / max(count["samples_per_s"], 1e-12)
        if ratio < min_throughput_ratio:
            failures.append(
                f"stream-bench:drift: throughput {ratio:.2f}x the count "
                f"schedule (need >= {min_throughput_ratio:.2f}x)"
            )
    for record in records:
        if not record.get("gate"):
            continue
        recall = record["recall_at_k"]
        if recall is not None and recall < min_recall:
            failures.append(
                f"{config_key(record)}: recall@{record['k']} {recall:.3f} "
                f"below the {min_recall:.2f} floor"
            )
        if record["garbage_frac_max"] > max_garbage:
            failures.append(
                f"{config_key(record)}: garbage fraction peaked at "
                f"{record['garbage_frac_max']:.3f} (> {max_garbage:.2f}) — "
                "update path not bounded"
            )
    streamed = sum(r["rehashed_items"] for r in records if r.get("gate"))
    if streamed < min_updates:
        failures.append(
            f"stream-bench: only {streamed} items streamed through the "
            f"update path across gated configs (need >= {min_updates})"
        )
    return failures


def write_bench_json(records: Sequence[Dict], path, quick: bool = False) -> Path:
    """Write the perf-trajectory file (snapshots stripped)."""
    path = Path(path)
    payload = {
        "bench": "stream",
        "quick": bool(quick),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "numpy": np.__version__,
        "model": dict(MODEL_SHAPE),
        "count_every": COUNT_EVERY,
        "records": [
            {k: v for k, v in record.items() if not k.startswith("_")}
            for record in records
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """CLI flags shared by the script and the ``stream-bench`` subcommand."""
    parser.add_argument("--quick", action="store_true",
                        help="short streams, for CI (seconds)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", type=int, default=10,
                        help="recall@k size for the LSH probe")
    parser.add_argument("--out", default="BENCH_stream.json",
                        help="perf-trajectory JSON output path")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on a gate failure")
    parser.add_argument("--min-recall", type=float, default=0.4,
                        help="recall-under-drift floor for gated policies")
    parser.add_argument("--recall-eps", type=float, default=0.02,
                        help="slack when comparing drift vs count recall")
    parser.add_argument("--min-throughput-ratio", type=float, default=0.8,
                        help="required drift/count samples-per-sec ratio "
                             "(0.8 = a >20%% regression fails)")
    parser.add_argument("--max-garbage", type=float, default=0.8,
                        help="worst tolerated flat-backend garbage fraction")
    parser.add_argument("--min-updates", type=int, default=None,
                        help="required items through the update path across "
                             "gated configs (default 100000, 2000 quick)")
    parser.add_argument("--store", default=None,
                        help="append the merged obs snapshot as a trace "
                             "record to this JSONL (for `repro report`)")


def run_cli(args: argparse.Namespace) -> int:
    """Run the configurations per parsed args; returns the exit code."""
    configs = default_configs(quick=args.quick)
    print(
        f"stream-bench: {len(configs)} rebuild policies over a drifting "
        f"stream ({'quick' if args.quick else 'full'}: "
        f"{configs[0]['batches']} batches of "
        f"{MODEL_SHAPE['batch_size']} after {configs[0]['warmup']} warm-up)"
    )
    records = run_configs(configs, seed=args.seed, k=args.k)
    if args.store:
        from ..obs import trace_record, write_trace

        merged = merge_snapshots([r["_snapshot"] for r in records])
        write_trace(
            args.store,
            trace_record(merged, label="stream-bench", key="stream-bench"),
        )
        print(f"trace appended to {args.store}")
    out = write_bench_json(records, args.out, quick=args.quick)
    print(f"wrote {out}")
    min_updates = args.min_updates
    if min_updates is None:
        min_updates = 2000 if args.quick else 100_000
    failures = check_records(
        records,
        min_recall=args.min_recall,
        recall_eps=args.recall_eps,
        min_throughput_ratio=args.min_throughput_ratio,
        max_garbage=args.max_garbage,
        min_updates=min_updates,
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if args.check and failures:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``benchmarks/bench_stream.py``)."""
    parser = argparse.ArgumentParser(
        description="drifting-stream continual-training benchmark"
    )
    add_arguments(parser)
    return run_cli(parser.parse_args(argv))
