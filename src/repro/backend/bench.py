"""Backend suite of ``python -m repro bench``: reference vs fast backends.

Times the dense and sampled GEMM kernels at the paper's shapes (the
Table 2 minibatch, the 1000-wide hidden layers of Tables 3-4, and the
MC column-row sampled product) on every built-in backend, best of
``REPEATS`` after one warm-up call, and checks the fast backend stays
within its documented float32 tolerance of the reference result.  The
records go to ``BENCH_backend.json``.  Two shapes are the regression
gate: it fails if ``fast`` does not beat ``reference`` by
``--min-speedup`` (default ``MIN_SPEEDUP``) on the paper-scale dense
GEMM and on the batched sampled GEMM.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Sequence

import numpy as np

from .fast import FAST_RTOL, FastBackend
from .reference import ReferenceBackend

HEADER = {"bench": "compute_backend"}
MIN_SPEEDUP = 1.0
REPEATS = 5  # timed calls per backend; the best one counts
SEED = 0

#: Absolute slack for the fast-vs-reference closeness check.  float32
#: accumulation over a k=1000 inner dimension on unit-normal data keeps
#: the relative error well under FAST_RTOL, but near-zero entries need
#: an absolute floor larger than the per-element FAST_ATOL.
_CHECK_ATOL = 1e-3


def configs(quick: bool) -> List[Dict]:
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


def _best_of(call, backend) -> float:
    """Minimum wall-clock over ``REPEATS`` calls (one warm-up first)."""
    call(backend)  # warm up scratch buffers and BLAS threads
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call(backend)
        best = min(best, time.perf_counter() - start)
    return best


def bench_shape(shape: Dict) -> Dict:
    """Time one shape on every built-in backend and compute speedups.

    Operands are derived from a per-shape :class:`~numpy.random.
    SeedSequence`, so records are reproducible and independent of
    sweep order.
    """
    ss = np.random.SeedSequence(
        [SEED, shape["m"], shape["k"], shape["n"], shape.get("keep", 0)]
    )
    call = _make_call(shape, np.random.default_rng(ss))
    backends = {"reference": ReferenceBackend(), "fast": FastBackend()}
    record: Dict = dict(shape)
    outputs = {}
    for name, backend in backends.items():
        record[name] = _best_of(call, backend)
        outputs[name] = call(backend)
    record["speedup"] = {
        "fast": record["reference"] / max(record["fast"], 1e-12)
    }
    record["fast_close"] = bool(
        np.allclose(outputs["fast"], outputs["reference"],
                    rtol=FAST_RTOL, atol=_CHECK_ATOL)
    )
    return record


def run(shapes: Sequence[Dict]) -> Iterator[Dict]:
    """Benchmark every shape; yields one record per shape."""
    for shape in shapes:
        yield bench_shape(shape)


def summary(record: Dict) -> str:
    return (
        f"{shape_key(record)}: ref {record['reference'] * 1e3:.3f}ms, "
        f"fast {record['speedup']['fast']:.2f}x"
        f"{'' if record['fast_close'] else ' (fast DIVERGES)'}"
    )


def gate(
    records: Sequence[Dict], quick: bool, min_speedup: float = MIN_SPEEDUP
) -> List[str]:
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
