"""LSH-accelerated inference serving (ISSUE 8).

The repo trains; production traffic is mostly inference.  This package
serves the checkpoints the trainers produce:

* :mod:`~repro.serve.registry` — immutable, versioned
  :class:`ServableModel`\\ s: MLPs, live or loaded from ``.npz``
  archives (corrupt or non-MLP archives refused at load, digests
  pinnable per deploy).
* :mod:`~repro.serve.batcher` — the async micro-batching queue: collect
  requests for ~N ms or until ``max_batch``, one batched forward,
  scatter responses; bounded depth, per-request deadlines, 429-style
  load shedding.
* :mod:`~repro.serve.head` — the :class:`ALSHTopKHead`, answering
  top-k classes from LSH candidates without the full output GEMM.
* :mod:`~repro.serve.tenants` — per-user heads over a shared trunk,
  in an LRU cache.
* :mod:`~repro.serve.server` — the :class:`InferenceServer`
  composition, the one serving session (``serve_session``) behind
  ``python -m repro serve``, its CI smoke and the serve bench.
* :mod:`~repro.serve.bench` — the qps / tail-latency suite behind
  ``python -m repro bench serve`` and ``BENCH_serve.json``.

Everything reports through :mod:`repro.obs` (queue-depth gauge,
batch-size series, shed counters, p50/p99 latency gauges, head recall
series) and surfaces via ``python -m repro serve``.
"""

from .batcher import (
    BatchCollector,
    DeadlineExceeded,
    MicroBatcher,
    ServeError,
    ServeRequest,
    ServerClosed,
    ServerOverloaded,
)
from .head import ALSHTopKHead, HeadRecallProbe, head_recall
from .registry import ModelRegistry, ServableModel, load_servable, weights_digest
from .server import InferenceServer, seeded_servable
from .tenants import TenantHeadCache

__all__ = [
    "ServeError",
    "ServerOverloaded",
    "DeadlineExceeded",
    "ServerClosed",
    "ServeRequest",
    "BatchCollector",
    "MicroBatcher",
    "ALSHTopKHead",
    "HeadRecallProbe",
    "head_recall",
    "ModelRegistry",
    "ServableModel",
    "load_servable",
    "weights_digest",
    "InferenceServer",
    "seeded_servable",
    "TenantHeadCache",
]
