"""Unified observability layer: spans, counters and trace records.

The paper's contribution is a *measurement harness* — its §8–§11 claims
are runtime, FLOP and cache-behaviour comparisons — so the repo needs a
first-class record of what each trainer actually did: dense vs skipped
FLOPs, LSH candidates retrieved, hash-table rebuilds, sampler rows/cols
kept, lazy optimiser updates.  This package provides that record without
perturbing the thing being measured:

* :class:`~repro.obs.recorder.NullRecorder` — the default everywhere.
  Every method is a no-op and ``enabled`` is False, so instrumented code
  paths cost one attribute load + no-op call (and skip any non-trivial
  counter computation entirely via ``if obs.enabled``).  Training under
  the null recorder is bitwise identical to the pre-instrumentation
  code — enforced by ``tests/obs/test_noop.py``.
* :class:`~repro.obs.recorder.InMemoryRecorder` — hierarchical spans
  (run → epoch → phase), counters, gauges and phase timings, snapshotted
  to a JSON-safe dict.
* :mod:`~repro.obs.sink` — JSONL trace records in the same
  one-object-per-line format as the executor's resumable sink, so traces
  and sweep outcomes can share a file.
* :func:`~repro.obs.recorder.merge_snapshots` — cross-process
  aggregation: executor workers attach their snapshot to each
  :class:`~repro.harness.experiment.ExperimentResult` and the parent
  merges them into one sweep-level rollup.
* :mod:`~repro.obs.timeseries` — epoch/batch-indexed metric series
  (loss curves, probe error trajectories) riding the same snapshot,
  merge and checkpoint machinery as counters.
* :mod:`~repro.obs.probes` — cadence-bounded quality probes (forward
  error vs the exact pass, LSH recall vs brute-force MIPS, MC
  estimator moments), strictly read-only with a private RNG stream.
* :mod:`~repro.obs.report` — the one report model: the rows that
  ``trace-report``, the HTML report (:mod:`~repro.obs.html`) and live
  sink tailing (:mod:`~repro.obs.monitor`) print.

The package core is dependency-free (stdlib only) and must never import
from the rest of ``repro`` — everything else imports *it*.  The one
sanctioned exception is :mod:`~repro.obs.probes`, the measurement
boundary: it uses numpy, duck-types trainers, and defers its single
``repro.approx`` import to probe-run time.  To preserve the stdlib-only
core, ``repro.obs`` itself does not import it — attach probes via
``from repro.obs.probes import ProbeManager, default_probes``.
"""

from . import counters
from .counters import (
    COUNTER_CATALOG,
    GAUGE_CATALOG,
    HISTOGRAM_CATALOG,
    HISTOGRAM_PREFIXES,
    gemm_flops,
)
from .export import (
    MetricsServer,
    parse_prometheus,
    render_prometheus,
    sanitize_metric_name,
    write_exposition,
)
from .histogram import Histogram, merge_histogram_snapshots
from .recorder import (
    NULL_RECORDER,
    InMemoryRecorder,
    NullRecorder,
    Recorder,
    merge_snapshots,
)
from .slo import (
    SLOResult,
    attach_burn_gauges,
    burn_gauges,
    evaluate_slos,
    load_slo_spec,
    render_slo_results,
)
from .tracectx import (
    NULL_TRACER,
    REQUEST_TRACE_KIND,
    RequestTracer,
    read_trace_events,
    reconstruct_request,
    render_request_timeline,
)
from .html import render_html_report
from .monitor import follow_jsonl, monitor_sink, summarize_record
from .report import (
    derived_metrics,
    probe_overhead,
    render_counters,
    render_histograms,
    render_series,
    render_spans,
    render_trace,
)
from .sink import (
    AGGREGATE_KIND,
    TRACE_KIND,
    load_trace_file,
    read_traces,
    scan_jsonl,
    trace_record,
    write_trace,
)
from .spans import Span
from .timeseries import (
    SERIES_CATALOG,
    SERIES_PREFIXES,
    SeriesStore,
    is_catalogued_series,
    layer_series,
    merge_series,
    series_points,
    split_layer_series,
)

__all__ = [
    "TRACE_KIND",
    "AGGREGATE_KIND",
    "REQUEST_TRACE_KIND",
    "Histogram",
    "merge_histogram_snapshots",
    "HISTOGRAM_CATALOG",
    "HISTOGRAM_PREFIXES",
    "MetricsServer",
    "render_prometheus",
    "parse_prometheus",
    "sanitize_metric_name",
    "write_exposition",
    "SLOResult",
    "load_slo_spec",
    "evaluate_slos",
    "burn_gauges",
    "attach_burn_gauges",
    "render_slo_results",
    "RequestTracer",
    "NULL_TRACER",
    "read_trace_events",
    "reconstruct_request",
    "render_request_timeline",
    "Recorder",
    "NullRecorder",
    "InMemoryRecorder",
    "NULL_RECORDER",
    "merge_snapshots",
    "Span",
    "counters",
    "COUNTER_CATALOG",
    "GAUGE_CATALOG",
    "gemm_flops",
    "trace_record",
    "write_trace",
    "read_traces",
    "scan_jsonl",
    "load_trace_file",
    "render_trace",
    "render_counters",
    "render_spans",
    "render_series",
    "render_histograms",
    "derived_metrics",
    "probe_overhead",
    "render_html_report",
    "follow_jsonl",
    "monitor_sink",
    "summarize_record",
    "SERIES_CATALOG",
    "SERIES_PREFIXES",
    "SeriesStore",
    "is_catalogued_series",
    "layer_series",
    "merge_series",
    "series_points",
    "split_layer_series",
]
