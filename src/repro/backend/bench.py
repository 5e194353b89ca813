"""Microbenchmark: reference vs fast compute backends.

Times the dense and sampled GEMM kernels at the paper's shapes (the
Table 2 minibatch, the 1000-wide hidden layers of Tables 3-4, and the
MC column-row sampled product) on every built-in backend, checks the
fast backend stays within its documented float32 tolerance of the
reference result, and writes a ``BENCH_backend.json`` perf-trajectory
file so later PRs can compare against this one.  Two shapes are the
regression gate: the run fails under ``--check`` if ``fast`` does not
beat ``reference`` by ``--min-speedup`` on the paper-scale dense GEMM
and on the batched sampled GEMM.

Runnable three ways:

* ``python benchmarks/bench_backend.py [--quick]`` (CI uses
  ``--quick --check``),
* ``python -m repro backend-bench``,
* programmatically via :func:`run_shapes`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .fast import FAST_RTOL, FastBackend
from .reference import ReferenceBackend

__all__ = [
    "default_shapes",
    "shape_key",
    "bench_shape",
    "run_shapes",
    "check_speedups",
    "write_bench_json",
    "add_arguments",
    "run_cli",
    "main",
]

#: Absolute slack for the fast-vs-reference closeness check.  float32
#: accumulation over a k=1000 inner dimension on unit-normal data keeps
#: the relative error well under FAST_RTOL, but near-zero entries need
#: an absolute floor larger than the per-element FAST_ATOL.
_CHECK_ATOL = 1e-3


def default_shapes(quick: bool = False) -> List[Dict]:
    """The benchmark shapes: a quick CI slice or the full sweep.

    Both include the two gated shapes — the paper-scale dense GEMM
    (batch 128 against a 1000x1000 hidden layer, Tables 3-4) and the
    batched MC sampled GEMM (keep 100 of a 1000-wide inner dimension) —
    so the regression gate always has records to check.  The full sweep
    adds the Table 2 minibatch (batch 20 on 784x1000), a large-batch
    dense point, the minibatch-sized sampled product, and an ALSH-style
    column-subset product.
    """
    shapes = [
        {"kind": "dense", "m": 128, "k": 1000, "n": 1000, "gate": True},
        {"kind": "sampled", "m": 128, "k": 1000, "n": 1000, "keep": 100,
         "gate": True},
        {"kind": "dense", "m": 20, "k": 784, "n": 1000, "gate": False},
    ]
    if quick:
        return shapes
    return shapes + [
        {"kind": "dense", "m": 1024, "k": 784, "n": 1000, "gate": False},
        {"kind": "sampled", "m": 20, "k": 1000, "n": 1000, "keep": 100,
         "gate": False},
        {"kind": "cols", "m": 20, "k": 784, "n": 1000, "keep": 200,
         "gate": False},
    ]


def shape_key(shape: Dict) -> str:
    """Stable identifier for one benchmark shape."""
    key = f"backend-bench:{shape['kind']}:{shape['m']}x{shape['k']}x{shape['n']}"
    if "keep" in shape:
        key += f":keep{shape['keep']}"
    return key


def _make_call(shape: Dict, rng: np.random.Generator):
    """Build the operands and a ``call(backend) -> ndarray`` closure."""
    m, k, n = shape["m"], shape["k"], shape["n"]
    if shape["kind"] == "dense":
        a = rng.normal(size=(m, k))
        w = rng.normal(size=(k, n))
        bias = rng.normal(size=n)
        return lambda backend: backend.matmul_add_bias(a, w, bias)
    if shape["kind"] == "sampled":
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        idx = np.sort(rng.choice(k, size=shape["keep"], replace=False))
        scales = 1.0 / np.sqrt(shape["keep"] / k + rng.uniform(
            0.0, 0.1, size=shape["keep"]
        ))
        return lambda backend: backend.sampled_matmul(a, b, idx, scales)
    if shape["kind"] == "cols":
        a = rng.normal(size=(m, k))
        w = rng.normal(size=(k, n))
        bias = rng.normal(size=n)
        cols = np.sort(rng.choice(n, size=shape["keep"], replace=False))
        return lambda backend: backend.matmul_cols(a, w, bias, cols)
    raise ValueError(f"unknown shape kind {shape['kind']!r}")


def _best_of(call, backend, repeats: int) -> float:
    """Minimum wall-clock over ``repeats`` calls (one warm-up first)."""
    call(backend)  # warm up scratch buffers and BLAS threads
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call(backend)
        best = min(best, time.perf_counter() - start)
    return best


def bench_shape(shape: Dict, repeats: int = 5, seed: int = 0) -> Dict:
    """Time one shape on every built-in backend and compute speedups.

    Operands are derived from a per-shape :class:`~numpy.random.
    SeedSequence`, so records are reproducible and independent of
    sweep order.
    """
    ss = np.random.SeedSequence(
        [seed, shape["m"], shape["k"], shape["n"], shape.get("keep", 0)]
    )
    call = _make_call(shape, np.random.default_rng(ss))
    backends = {"reference": ReferenceBackend(), "fast": FastBackend()}
    record: Dict = dict(shape)
    outputs = {}
    for name, backend in backends.items():
        record[name] = _best_of(call, backend, repeats)
        outputs[name] = call(backend)
    record["speedup"] = {
        "fast": record["reference"] / max(record["fast"], 1e-12)
    }
    record["fast_close"] = bool(
        np.allclose(outputs["fast"], outputs["reference"],
                    rtol=FAST_RTOL, atol=_CHECK_ATOL)
    )
    return record


def run_shapes(
    shapes: Sequence[Dict],
    repeats: int = 5,
    seed: int = 0,
    verbose: bool = True,
) -> List[Dict]:
    """Benchmark every shape; returns one record per shape."""
    records = []
    for i, shape in enumerate(shapes):
        record = bench_shape(shape, repeats=repeats, seed=seed)
        records.append(record)
        if verbose:
            print(
                f"  [{i + 1}/{len(shapes)}] {shape_key(shape)}: "
                f"ref {record['reference'] * 1e3:.3f}ms, "
                f"fast {record['speedup']['fast']:.2f}x"
                f"{' [gate]' if shape.get('gate') else ''}"
                f"{'' if record['fast_close'] else ' (fast DIVERGES)'}"
            )
    return records


def check_speedups(records: Sequence[Dict], min_speedup: float = 1.0) -> List[str]:
    """Regression gate: failures at the gated paper shapes.

    Every record's fast output must be within the documented float32
    tolerance of reference; gated records must additionally beat
    reference by ``min_speedup`` on ``fast``.
    """
    failures = []
    for record in records:
        if not record["fast_close"]:
            failures.append(
                f"{shape_key(record)}: fast output outside float32 tolerance"
            )
        if record.get("gate") and record["speedup"]["fast"] < min_speedup:
            failures.append(
                f"{shape_key(record)}: fast only "
                f"{record['speedup']['fast']:.2f}x vs reference "
                f"(need >= {min_speedup:.2f}x)"
            )
    return failures


def write_bench_json(records: Sequence[Dict], path, quick: bool = False) -> Path:
    """Write the perf-trajectory file consumed by later PRs' benches."""
    path = Path(path)
    payload = {
        "bench": "compute_backend",
        "quick": bool(quick),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "numpy": np.__version__,
        "records": list(records),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """CLI flags shared by the script and the ``backend-bench`` subcommand."""
    parser.add_argument("--quick", action="store_true",
                        help="gated shapes only, for CI (seconds)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per backend (best-of)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_backend.json",
                        help="perf-trajectory JSON output path")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if fast loses at a gated shape")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="required fast/reference ratio at gated shapes")


def run_cli(args: argparse.Namespace) -> int:
    """Run the shapes per parsed args; returns the process exit code."""
    shapes = default_shapes(quick=args.quick)
    print(
        f"backend-bench: {len(shapes)} shapes "
        f"({'quick' if args.quick else 'full'} sweep), "
        f"best-of-{args.repeats} timings"
    )
    records = run_shapes(shapes, repeats=args.repeats, seed=args.seed)
    out = write_bench_json(records, args.out, quick=args.quick)
    print(f"wrote {out}")
    failures = check_speedups(records, min_speedup=args.min_speedup)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if args.check and failures:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``benchmarks/bench_backend.py``)."""
    parser = argparse.ArgumentParser(
        description="reference vs fast compute backend microbenchmark"
    )
    add_arguments(parser)
    return run_cli(parser.parse_args(argv))
