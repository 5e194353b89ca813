"""Canonical counter names and the measured-FLOP conventions.

Counters use dotted names grouped by subsystem.  The catalogue below is
the single source of truth: the docs render it, the trace report
explains unknown counters with it, and tests assert instrumented
trainers only emit catalogued names (plus the documented prefixes).

FLOP convention (matches :mod:`repro.harness.flops`): a multiply-
accumulate counts as 2 FLOPs.  Measured counters track *GEMM* work only
— ``flops.dense`` is what the exact computation would have cost,
``flops.actual`` is what was actually computed, and their difference is
the measured skipped work.  Element-wise passes (activations, masks,
probability machinery) are deliberately excluded: diffing the measured
numbers against the analytical model (which includes them) is how the
``trace-report`` command quantifies bookkeeping overhead.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "COUNTER_CATALOG",
    "gemm_flops",
    # training
    "TRAIN_EPOCHS",
    "TRAIN_BATCHES",
    "TRAIN_SAMPLES",
    # measured FLOPs
    "FLOPS_DENSE",
    "FLOPS_ACTUAL",
    # memory traffic of subset kernels
    "MEM_GATHER_BYTES",
    "MEM_SCATTER_BYTES",
    # optimiser
    "OPT_DENSE_UPDATES",
    "OPT_LAZY_UPDATE_HITS",
    "OPT_LAZY_UPDATE_COLS",
    # LSH
    "LSH_QUERIES",
    "LSH_CANDIDATES",
    "LSH_BUILDS",
    "LSH_UPDATES",
    "LSH_REHASHED_ITEMS",
    "LSH_REBUILDS",
    "LSH_REHASHED_COLUMNS",
    "LSH_ACTIVE_NODES",
    "LSH_ACTIVE_POOL",
    # gauges
    "GAUGE_CATALOG",
    "GAUGE_PREFIXES",
    "LSH_BUCKET_MAX_LOAD",
    "LSH_BUCKETS_OCCUPIED",
    "LSH_GARBAGE_FRAC",
    # probes
    "PROBE_RUNS",
    "PROBE_SKIPPED",
    "PROBE_DISABLED",
    "PROBE_POINTS",
    # samplers
    "SAMPLER_COLS_KEPT",
    "SAMPLER_COLS_POOL",
    "SAMPLER_ROWS_KEPT",
    "SAMPLER_ROWS_POOL",
    "SAMPLER_MASK_KEPT",
    "SAMPLER_MASK_POOL",
    # streaming
    "STREAM_BATCHES",
    "STREAM_SAMPLES",
    "STREAM_DRIFT_CHECKS",
    "STREAM_REBUILDS",
    "STREAM_COMPACTIONS",
    "STREAM_CHECKPOINTS",
    "STREAM_EVALS",
    # serving
    "SERVE_REQUESTS",
    "SERVE_BATCHES",
    "SERVE_SHED_QUEUE_FULL",
    "SERVE_SHED_DEADLINE",
    "SERVE_HANDLER_ERRORS",
    "SERVE_HEAD_QUERIES",
    "SERVE_HEAD_CANDIDATES",
    "SERVE_HEAD_FALLBACKS",
    "SERVE_TENANT_HITS",
    "SERVE_TENANT_MISSES",
    "SERVE_TENANT_EVICTIONS",
    "SERVE_QUEUE_DEPTH",
    "SERVE_LATENCY_P50",
    "SERVE_LATENCY_P99",
    "SERVE_TENANT_RESIDENT",
    # histograms
    "HISTOGRAM_CATALOG",
    "HISTOGRAM_PREFIXES",
    "HIST_SERVE_LATENCY",
    "HIST_SERVE_QUEUE_WAIT",
    "HIST_SERVE_HEAD_SECONDS",
    "HIST_STREAM_BATCH_SECONDS",
    "KERNEL_SECONDS_PREFIX",
    "SLO_BURN_PREFIX",
]

TRAIN_EPOCHS = "train.epochs"
TRAIN_BATCHES = "train.batches"
TRAIN_SAMPLES = "train.samples"

FLOPS_DENSE = "flops.dense"
FLOPS_ACTUAL = "flops.actual"

MEM_GATHER_BYTES = "mem.gather_bytes"
MEM_SCATTER_BYTES = "mem.scatter_bytes"

#: per-backend usage counters are ``backend.used.<name>``; the built-in
#: names are catalogued below (custom backends should add their own).
BACKEND_USED_PREFIX = "backend.used."
#: per-kernel measured FLOPs are ``kernel.flops.<kernel>`` (see
#: :mod:`repro.backend.instrument` for the kernel list).
KERNEL_FLOPS_PREFIX = "kernel.flops."

OPT_DENSE_UPDATES = "optim.dense_updates"
OPT_LAZY_UPDATE_HITS = "optim.lazy_update_hits"
OPT_LAZY_UPDATE_COLS = "optim.lazy_update_cols"

LSH_QUERIES = "lsh.queries"
LSH_CANDIDATES = "lsh.candidates"
LSH_BUILDS = "lsh.builds"
LSH_UPDATES = "lsh.updates"
LSH_REHASHED_ITEMS = "lsh.rehashed_items"
LSH_REBUILDS = "lsh.rebuilds"
LSH_REHASHED_COLUMNS = "lsh.rehashed_columns"
LSH_ACTIVE_NODES = "lsh.active_nodes"
LSH_ACTIVE_POOL = "lsh.active_pool"

PROBE_RUNS = "probe.runs"
PROBE_SKIPPED = "probe.skipped"
PROBE_DISABLED = "probe.budget_disabled"
PROBE_POINTS = "probe.points"

SAMPLER_COLS_KEPT = "sampler.cols_kept"
SAMPLER_COLS_POOL = "sampler.cols_pool"
SAMPLER_ROWS_KEPT = "sampler.rows_kept"
SAMPLER_ROWS_POOL = "sampler.rows_pool"
SAMPLER_MASK_KEPT = "sampler.mask_kept"
SAMPLER_MASK_POOL = "sampler.mask_pool"

STREAM_BATCHES = "stream.batches"
STREAM_SAMPLES = "stream.samples"
STREAM_DRIFT_CHECKS = "stream.drift_checks"
STREAM_REBUILDS = "stream.rebuilds"
STREAM_COMPACTIONS = "stream.compactions"
STREAM_CHECKPOINTS = "stream.checkpoints"
STREAM_EVALS = "stream.evals"

SERVE_REQUESTS = "serve.requests"
SERVE_BATCHES = "serve.batches"
SERVE_SHED_QUEUE_FULL = "serve.shed.queue_full"
SERVE_SHED_DEADLINE = "serve.shed.deadline"
SERVE_HANDLER_ERRORS = "serve.handler_errors"
SERVE_HEAD_QUERIES = "serve.head.queries"
SERVE_HEAD_CANDIDATES = "serve.head.candidates"
SERVE_HEAD_FALLBACKS = "serve.head.exact_fallbacks"
SERVE_TENANT_HITS = "serve.tenant.hits"
SERVE_TENANT_MISSES = "serve.tenant.misses"
SERVE_TENANT_EVICTIONS = "serve.tenant.evictions"

#: name -> one-line description, rendered in docs and the trace report.
COUNTER_CATALOG: Dict[str, str] = {
    TRAIN_EPOCHS: "training epochs completed",
    TRAIN_BATCHES: "optimisation steps (batches) taken",
    TRAIN_SAMPLES: "training samples consumed",
    FLOPS_DENSE: "GEMM FLOPs the exact computation would have cost",
    FLOPS_ACTUAL: "GEMM FLOPs actually executed (dense - actual = skipped)",
    MEM_GATHER_BYTES: "bytes gathered by subset/sampled kernels (modelled)",
    MEM_SCATTER_BYTES: "bytes scattered by sparse-column updates (modelled)",
    BACKEND_USED_PREFIX + "reference": "fit() calls run on the reference backend",
    KERNEL_FLOPS_PREFIX + "matmul": "GEMM FLOPs executed by the matmul kernel",
    KERNEL_FLOPS_PREFIX + "matmul_add_bias": (
        "GEMM FLOPs executed by the matmul_add_bias kernel"
    ),
    KERNEL_FLOPS_PREFIX + "matmul_cols": (
        "GEMM FLOPs executed by the matmul_cols kernel"
    ),
    KERNEL_FLOPS_PREFIX + "backprop_cols": (
        "GEMM FLOPs executed by the backprop_cols kernel"
    ),
    KERNEL_FLOPS_PREFIX + "grad_cols": (
        "GEMM FLOPs executed by the grad_cols kernel"
    ),
    KERNEL_FLOPS_PREFIX + "sampled_matmul": (
        "GEMM FLOPs executed by the sampled_matmul kernel"
    ),
    OPT_DENSE_UPDATES: "full-parameter optimiser updates",
    OPT_LAZY_UPDATE_HITS: "sparse-column (lazy) optimiser updates",
    OPT_LAZY_UPDATE_COLS: "columns advanced across all lazy updates",
    LSH_QUERIES: "hash-table lookups (one per sample per layer)",
    LSH_CANDIDATES: "candidate ids returned across all queries",
    LSH_BUILDS: "full hash-table builds",
    LSH_UPDATES: "incremental hash-table update calls",
    LSH_REHASHED_ITEMS: "items re-inserted by incremental updates",
    LSH_REBUILDS: "scheduled table refreshes triggered by the trainer",
    LSH_REHASHED_COLUMNS: "weight columns re-hashed by scheduled or stream-driven refreshes",
    LSH_ACTIVE_NODES: "active nodes selected after candidate clamping",
    LSH_ACTIVE_POOL: "nodes that were eligible (layer widths summed)",
    PROBE_RUNS: "probe invocations executed (per probe, across the run)",
    PROBE_SKIPPED: "probe invocations skipped (probe did not apply to the trainer)",
    PROBE_DISABLED: "probes disabled after exceeding their wall-clock budget",
    PROBE_POINTS: "time-series points recorded by probes",
    SAMPLER_COLS_KEPT: "weight columns kept by column samplers",
    SAMPLER_COLS_POOL: "columns that were eligible",
    SAMPLER_ROWS_KEPT: "inner-dimension indices kept by MC samplers",
    SAMPLER_ROWS_POOL: "inner-dimension indices that were eligible",
    SAMPLER_MASK_KEPT: "mask entries kept by element-wise dropout masks",
    SAMPLER_MASK_POOL: "mask entries that were eligible",
    STREAM_BATCHES: "stream minibatches trained by the online trainer",
    STREAM_SAMPLES: "streamed samples consumed by the online trainer",
    STREAM_DRIFT_CHECKS: "drift-detector evaluations over touched columns",
    STREAM_REBUILDS: "drift-triggered table refreshes (checks that re-hashed columns)",
    STREAM_COMPACTIONS: "garbage-gauge-forced compactions of the flat backend",
    STREAM_CHECKPOINTS: "mid-stream checkpoints written",
    STREAM_EVALS: "held-out evaluations on the current stream distribution",
    SERVE_REQUESTS: "inference requests accepted by the serving queue",
    SERVE_BATCHES: "micro-batches dispatched to the model handler",
    SERVE_SHED_QUEUE_FULL: "requests shed with 429-style overload (queue at depth limit)",
    SERVE_SHED_DEADLINE: "requests shed because their deadline passed before dispatch",
    SERVE_HANDLER_ERRORS: "micro-batches whose handler raised (requests failed, server survived)",
    SERVE_HEAD_QUERIES: "top-k queries answered by the ALSH serving head",
    SERVE_HEAD_CANDIDATES: "candidate classes scored across all ALSH head queries",
    SERVE_HEAD_FALLBACKS: "head queries answered exactly (candidate set smaller than k)",
    SERVE_TENANT_HITS: "tenant head-cache hits (head already resident)",
    SERVE_TENANT_MISSES: "tenant head-cache misses (head loaded on demand)",
    SERVE_TENANT_EVICTIONS: "tenant heads evicted by the LRU head cache",
}

LSH_BUCKET_MAX_LOAD = "lsh.bucket_max_load"
LSH_BUCKETS_OCCUPIED = "lsh.buckets_occupied"
LSH_GARBAGE_FRAC = "lsh.garbage_frac"

SERVE_QUEUE_DEPTH = "serve.queue_depth"
SERVE_LATENCY_P50 = "serve.latency_p50"
SERVE_LATENCY_P99 = "serve.latency_p99"
SERVE_TENANT_RESIDENT = "serve.tenant.resident"

#: SLO error-budget-burn gauges are ``slo.burn.<spec name>``; the spec
#: names are user-defined, so the family is catalogued by prefix.
SLO_BURN_PREFIX = "slo.burn."

#: gauges (last-value metrics); merged across processes by max.
GAUGE_CATALOG: Dict[str, str] = {
    LSH_BUCKET_MAX_LOAD: "largest bucket occupancy seen at build time",
    LSH_BUCKETS_OCCUPIED: "occupied buckets across all tables at build",
    LSH_GARBAGE_FRAC: "tombstone/extras fraction of the flat LSH backend at last probe",
    SERVE_QUEUE_DEPTH: "high-water queue depth of the serving request queue",
    SERVE_LATENCY_P50: "median request latency in seconds (enqueue to response)",
    SERVE_LATENCY_P99: "99th-percentile request latency in seconds",
    SERVE_TENANT_RESIDENT: "tenant heads resident in the cache at last touch",
}

#: dotted-name prefixes for gauge families with dynamic suffixes.
GAUGE_PREFIXES: Dict[str, str] = {
    SLO_BURN_PREFIX: "error-budget burn of the named SLO (above 1: violated)",
}

HIST_SERVE_LATENCY = "serve.latency_s"
HIST_SERVE_QUEUE_WAIT = "serve.queue_wait_s"
HIST_SERVE_HEAD_SECONDS = "serve.head.topk_s"
HIST_STREAM_BATCH_SECONDS = "stream.batch_s"

#: per-kernel call-time histograms are ``kernel.seconds.<kernel>``
#: (same kernel names as :data:`KERNEL_FLOPS_PREFIX`).
KERNEL_SECONDS_PREFIX = "kernel.seconds."

#: log-bucket histograms (bounded, mergeable; see repro.obs.histogram).
HISTOGRAM_CATALOG: Dict[str, str] = {
    HIST_SERVE_LATENCY: "request latency in seconds (enqueue to response)",
    HIST_SERVE_QUEUE_WAIT: "queue wait in seconds (enqueue to dispatch)",
    HIST_SERVE_HEAD_SECONDS: "ALSH top-k head time per micro-batch in seconds",
    HIST_STREAM_BATCH_SECONDS: "wall-clock seconds per streamed training batch",
}

#: dotted-name prefixes for histogram families with dynamic suffixes.
HISTOGRAM_PREFIXES: Dict[str, str] = {
    KERNEL_SECONDS_PREFIX: "per-call seconds of the named backend kernel",
}


def gemm_flops(m: int, k: int, n: int) -> int:
    """FLOPs of an (m×k)·(k×n) matrix product at 2 FLOPs per MAC."""
    return 2 * int(m) * int(k) * int(n)
