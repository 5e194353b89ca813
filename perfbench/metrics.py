"""The metric catalogue: names, units, direction and regression bounds.

``BENCHMARK.json`` at the repository root lists the same metrics (a test
keeps the two in step).  Every workload prints every metric of its mode:
the end-to-end metrics apply to all four workloads, and a per-layer metric
of a layer a workload never calls reads 0 there.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = [
    "WORKLOADS",
    "METHODS",
    "GEMM_KERNELS",
    "TIMED_KERNELS",
    "END_TO_END",
    "PER_LAYER",
    "result_metrics",
]

#: workload name -> why it was chosen (one line each).
WORKLOADS: Dict[str, str] = {
    "train-minibatch": (
        "Table 4 regime: 784-1000x3-10 at batch 20, four methods; dense, "
        "sampled and column-subset GEMMs plus the approx sampler, no LSH"
    ),
    "train-stochastic": (
        "Table 3 regime: batch 1, six methods; interpreter overhead, dense "
        "SGD and lazy-Adam updates dominate, LSH is about 2% of an ALSH step"
    ),
    "stream-drift": (
        "drift-triggered ALSH streaming with compaction: LSH writes beside "
        "batched reads, tiny GEMMs"
    ),
    "serve-openloop": (
        "ALSH top-k serving at micro-batch 32 under a seeded open-loop "
        "Poisson schedule, then a closed-loop capacity segment"
    ),
}

#: the six training methods, in the paper's order.
METHODS = ("standard", "dropout", "adaptive_dropout", "mc", "alsh", "topk")

#: kernels with a FLOP model in repro.backend.instrument.
GEMM_KERNELS = (
    "matmul",
    "matmul_add_bias",
    "matmul_cols",
    "backprop_cols",
    "grad_cols",
    "sampled_matmul",
)

#: kernels whose per-call time is reported.
TIMED_KERNELS = GEMM_KERNELS + ("apply_activation",)

#: (name, unit, better, bound).  Ten seeds per workload spread by at most
#: 0.072 (stream-drift samples_per_s); a bound is three times that with
#: room to spare, and set-up, the noisiest, gets the largest.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("samples_per_s", "samples/s", "higher", 0.24),
    ("latency_ms.p50", "ms", "lower", 0.24),
]


def _per_layer() -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, str, str]] = []
    for m in METHODS:
        rows += [
            (f"{m}.samples_per_s", "samples/s", "higher"),
            (f"core.{m}.step_ms.p50", "ms", "lower"),
            (f"core.{m}.step_ms.p90", "ms", "lower"),
            (f"core.{m}.self_share", "fraction", "lower"),
            (f"core.{m}.backward_share", "fraction", "lower"),
            (f"backend.{m}.share", "fraction", "lower"),
            (f"optim.{m}.share", "fraction", "lower"),
            (f"flops.{m}.actual_over_dense", "ratio", "lower"),
            (f"mem.{m}.gather_bytes_per_sample", "B/sample", "lower"),
        ]
    for kernel in TIMED_KERNELS:
        rows.append((f"backend.{kernel}.us_per_call", "us", "lower"))
    for kernel in GEMM_KERNELS:
        rows.append((f"backend.{kernel}.gflops", "GFLOP/s", "higher"))
    rows += [
        ("optim.dense.us_per_call", "us", "lower"),
        ("optim.lazy.us_per_call", "us", "lower"),
        ("optim.lazy.cols_per_call", "count", "lower"),
        ("approx.mc.share", "fraction", "lower"),
        ("approx.rows_kept_frac", "ratio", "lower"),
        ("lsh.query.us_per_call", "us", "lower"),
        ("lsh.query_batch.us_per_call", "us", "lower"),
        ("lsh.update.us_per_call", "us", "lower"),
        ("lsh.share", "fraction", "lower"),
        ("lsh.candidates_per_query", "count", "lower"),
        ("lsh.active_frac", "ratio", "lower"),
        ("lsh.rehashed_items_per_batch", "count", "lower"),
        ("data.share", "fraction", "lower"),
        ("setup.data_s", "s", "lower"),
        ("setup.model_s", "s", "lower"),
        ("setup.server_s", "s", "lower"),
        ("setup.warmup_s", "s", "lower"),
        ("stream.batch_ms.p50", "ms", "lower"),
        ("stream.batch_ms.p99", "ms", "lower"),
        ("stream.rebuilds", "count", "lower"),
        ("stream.compactions", "count", "lower"),
        ("stream.garbage_frac_max", "fraction", "lower"),
        ("stream.recall_at_k", "fraction", "higher"),
        ("serve.latency_ms.p50", "ms", "lower"),
        ("serve.latency_ms.p99", "ms", "lower"),
        ("serve.capacity_qps", "req/s", "higher"),
        ("serve.recall_at_k", "fraction", "higher"),
        ("serve.queue_wait_ms.p50", "ms", "lower"),
        ("serve.queue_wait_ms.p99", "ms", "lower"),
        ("serve.trunk_ms_per_batch", "ms", "lower"),
        ("serve.head_ms_per_batch", "ms", "lower"),
        ("serve.batch_rows_mean", "count", "higher"),
        ("serve.generator_lag_ms.p99", "ms", "lower"),
        ("accuracy", "fraction", "higher"),
        ("obs.trace_overhead", "ratio", "lower"),
    ]
    return rows


#: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = _per_layer()


def result_metrics(values: Dict[str, float], trace: bool) -> Dict[str, dict]:
    """The ``metrics`` object of a result line, in catalogue order.

    End-to-end metrics must all be measured; an unmeasured per-layer
    metric (a layer this workload never calls) reads 0.
    """
    if trace:
        catalogue = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        catalogue = [(name, unit) for name, unit, _, _ in END_TO_END]
    known = {name for name, _ in catalogue}
    unknown = sorted(set(values) - known)
    if unknown:
        raise KeyError(f"metrics missing from the catalogue: {unknown}")
    out = {}
    for name, unit in catalogue:
        if name not in values and not trace:
            raise KeyError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
    return out
