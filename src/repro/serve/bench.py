"""Serve suite of ``python -m repro bench``: qps and tail latency at the paper shape.

Four configurations on one seeded paper-shape model (784 in, three
1000-wide hidden layers, a wide prototype output layer): exact vs ALSH
top-k head, each served batch-1 and micro-batched.  Every configuration
fires the same seeded request stream through one
:func:`~repro.serve.server.serve_session` (a live server and a windowed
client loop), timed once, and records sustained queries/sec, p50/p99
latency, mean batch size — and for the ALSH head, recall@k against
brute-force MIPS.

The records go to ``BENCH_serve.json``.  The gate fails when
micro-batching does not beat batch-1 serving by ``--min-speedup``
(default ``MIN_SPEEDUP``; CI passes a slack factor so noisy runners
only fail on real regressions) for either head, when the ALSH head's
recall drops below ``MIN_RECALL``, or when a request is shed or fails.
Each record carries its obs snapshot, so ``--store`` lets ``python -m
repro report`` render the serving section from real bench traffic.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

from .head import head_recall
from .server import seeded_servable, serve_session

#: paper-shape model served by every configuration: the paper trunk
#: (three 1000-wide hidden layers) into a narrow embedding and a wide
#: "nearest prototypes" output — the retrieval regime where a top-k
#: head earns its keep (SRP hashes discriminate at embedding width,
#: not trunk width).
MODEL_SHAPE = {
    "input_dim": 784,
    "hidden": 1000,
    "depth": 3,
    "embed": 128,
    "classes": 512,
}

MICRO_BATCH = 32

HEADER = {"model": dict(MODEL_SHAPE)}
TRACE_KEY = "serve-bench"
MIN_SPEEDUP = 2.0
MIN_RECALL = 0.9  # ALSH head recall@k floor
K = 10  # top-k answer size for both heads
SEED = 0


def configs(quick: bool) -> List[Dict]:
    """The four benchmark configurations; ``quick`` shrinks the stream."""
    requests = 400 if quick else 1600
    grid = []
    for head in ("exact", "alsh"):
        for batching in ("batch1", "micro"):
            grid.append({
                "head": head,
                "batching": batching,
                "requests": requests,
                "max_batch": 1 if batching == "batch1" else MICRO_BATCH,
                # The micro/batch1 qps ratio per head is the gate.
                "gate": batching == "micro",
            })
    return grid


def config_key(config: Dict) -> str:
    return f"serve-bench:{config['head']}:{config['batching']}"


def bench_config(config: Dict, model, window: int = 128) -> Dict:
    """Serve the request stream under one configuration; returns a record."""
    served = serve_session(
        model,
        config["requests"],
        # One seeded stream for every configuration, so qps ratios and
        # the two ALSH recall figures compare like for like.
        seed=SEED + 1,
        topk=K,
        exact=config["head"] == "exact",
        max_batch=config["max_batch"],
        window=window if config["max_batch"] > 1 else 8,
    )
    stats = served["stats"]
    record = dict(config)
    record.update({
        "k": K,
        "served": served["ok"],
        "shed": served["shed"],
        "failed": served["failed"],
        "elapsed_s": served["elapsed"],
        "qps": served["ok"] / served["elapsed"] if served["elapsed"] > 0 else 0.0,
        "latency_p50_ms": (stats["latency_p50"] or 0.0) * 1e3,
        "latency_p99_ms": (stats["latency_p99"] or 0.0) * 1e3,
        "batches": served["snapshot"]["counters"].get("serve.batches", 0),
    })
    if config["head"] == "alsh":
        sample = model.trunk_forward(served["rows"][:64])
        record["recall_at_k"] = head_recall(served["server"].head, sample, K)
    record["_snapshot"] = served["snapshot"]
    return record


def run(configs: Sequence[Dict]) -> Iterator[Dict]:
    """Benchmark every configuration on one shared model."""
    model = seeded_servable(seed=SEED, name="serve-bench", **MODEL_SHAPE)
    for config in configs:
        yield bench_config(config, model)


def summary(record: Dict) -> str:
    recall = (
        f", recall@{record['k']} {record['recall_at_k']:.3f}"
        if "recall_at_k" in record else ""
    )
    return (
        f"{config_key(record)}: {record['qps']:.0f} qps, "
        f"p99 {record['latency_p99_ms']:.2f}ms, "
        f"{record['batches']} batches{recall}"
    )


def gate(
    records: Sequence[Dict], quick: bool, min_speedup: float = MIN_SPEEDUP
) -> List[str]:
    """Regression gate: micro-batching qps ratio and ALSH head recall."""
    failures = []
    qps = {(r["head"], r["batching"]): r["qps"] for r in records}
    for head in ("exact", "alsh"):
        base = qps.get((head, "batch1"))
        micro = qps.get((head, "micro"))
        if base is None or micro is None:
            continue
        ratio = micro / max(base, 1e-12)
        if ratio < min_speedup:
            failures.append(
                f"serve-bench:{head}: micro-batching only {ratio:.2f}x "
                f"batch-1 qps (need >= {min_speedup:.2f}x)"
            )
    for record in records:
        recall = record.get("recall_at_k")
        if recall is not None and recall < MIN_RECALL:
            failures.append(
                f"{config_key(record)}: recall@{record['k']} {recall:.3f} "
                f"below {MIN_RECALL:.2f}"
            )
        if record.get("shed") or record.get("failed"):
            failures.append(
                f"{config_key(record)}: {record['shed']} shed / "
                f"{record['failed']} failed under nominal bench load"
            )
    return failures
