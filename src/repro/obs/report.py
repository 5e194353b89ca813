"""One report model: the rows every renderer of a snapshot prints.

:func:`report_tables` turns a snapshot into titled tables of rows:
counters, derived ratios and gauges with their catalogue descriptions,
spans and timings, series, histograms, the ``serve.``, ``stream.`` and
``slo.burn.`` slices of the metric rows, and probe overhead.
``python -m repro trace-report`` (:func:`render_trace`) and the HTML
report (:mod:`repro.obs.html`) only format those tables, and ``python
-m repro monitor`` prints :data:`HEADLINES`.  :func:`read_metric` is the
one reader of a single metric; SLO specs read through it too.

A counter, gauge, series or histogram shows up everywhere once its
catalogue entry exists; a derived ratio takes one
:data:`DERIVED_CATALOG` entry here.  Rendering is deliberately simple
(no dependency on the harness's table formatter — obs imports nothing
from the rest of the package).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from .counters import (
    COUNTER_CATALOG,
    FLOPS_ACTUAL,
    FLOPS_DENSE,
    GAUGE_CATALOG,
    GAUGE_PREFIXES,
    HIST_SERVE_LATENCY,
    HIST_STREAM_BATCH_SECONDS,
    HISTOGRAM_CATALOG,
    HISTOGRAM_PREFIXES,
    LSH_ACTIVE_NODES,
    LSH_ACTIVE_POOL,
    LSH_CANDIDATES,
    LSH_QUERIES,
    MEM_GATHER_BYTES,
    MEM_SCATTER_BYTES,
    SAMPLER_ROWS_KEPT,
    SAMPLER_ROWS_POOL,
    SERVE_BATCHES,
    SERVE_HANDLER_ERRORS,
    SERVE_HEAD_CANDIDATES,
    SERVE_HEAD_QUERIES,
    SERVE_REQUESTS,
    SERVE_SHED_DEADLINE,
    SERVE_SHED_QUEUE_FULL,
    SERVE_TENANT_HITS,
    SERVE_TENANT_MISSES,
    SLO_BURN_PREFIX,
    STREAM_BATCHES,
    STREAM_COMPACTIONS,
    STREAM_REBUILDS,
)
from .histogram import Histogram
from .timeseries import (
    SERIES_CATALOG,
    SERIES_EPOCH_LOSS,
    SERIES_PREFIXES,
    SERIES_STREAM_ACCURACY,
    SERIES_VAL_ACCURACY,
    series_points,
)

__all__ = [
    "DERIVED_CATALOG",
    "HEADLINES",
    "SLICES",
    "Row",
    "Table",
    "derived_metrics",
    "headline",
    "probe_overhead",
    "read_metric",
    "report_tables",
    "counter_table",
    "series_table",
    "format_text",
    "render_counters",
    "render_spans",
    "render_series",
    "render_histograms",
    "render_trace",
]


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def _traffic(c: Callable[[str], float]) -> float:
    return c(MEM_GATHER_BYTES) + c(MEM_SCATTER_BYTES)


#: derived name -> (description, value from a counter getter); a value
#: of None (a zero denominator) leaves the ratio out of the report.
DERIVED_CATALOG: Dict[str, Tuple[str, Callable[[Callable[[str], float]], Any]]] = {
    "flops.skipped": (
        "GEMM FLOPs skipped (dense - actual)",
        lambda c: c(FLOPS_DENSE) - c(FLOPS_ACTUAL) if c(FLOPS_DENSE) else None,
    ),
    "flops.skipped_frac": (
        "share of the dense GEMM FLOPs skipped",
        lambda c: _ratio(c(FLOPS_DENSE) - c(FLOPS_ACTUAL), c(FLOPS_DENSE)),
    ),
    # The gather/scatter bytes explain why skipped FLOPs do not turn 1:1
    # into skipped wall-clock.
    "mem.subset_traffic_bytes": (
        "bytes gathered plus scattered by subset kernels (modelled)",
        lambda c: _traffic(c) or None,
    ),
    "mem.bytes_per_actual_flop": (
        "subset-kernel bytes moved per executed GEMM FLOP",
        lambda c: _ratio(_traffic(c), c(FLOPS_ACTUAL)) if _traffic(c) else None,
    ),
    "lsh.candidates_per_query": (
        "candidate ids returned per hash-table lookup",
        lambda c: _ratio(c(LSH_CANDIDATES), c(LSH_QUERIES)),
    ),
    "lsh.active_frac": (
        "share of eligible nodes selected active",
        lambda c: _ratio(c(LSH_ACTIVE_NODES), c(LSH_ACTIVE_POOL)),
    ),
    "sampler.rows_kept_frac": (
        "share of inner-dimension indices kept by MC samplers",
        lambda c: _ratio(c(SAMPLER_ROWS_KEPT), c(SAMPLER_ROWS_POOL)),
    ),
    "serve.requests_per_batch": (
        "mean requests per dispatched micro-batch",
        lambda c: _ratio(c(SERVE_REQUESTS), c(SERVE_BATCHES)),
    ),
    "serve.head.candidates_per_query": (
        "mean candidate classes scored per ALSH head query",
        lambda c: _ratio(c(SERVE_HEAD_CANDIDATES), c(SERVE_HEAD_QUERIES)),
    ),
    "serve.tenant.hit_rate": (
        "share of tenant head lookups served from the cache",
        lambda c: _ratio(
            c(SERVE_TENANT_HITS), c(SERVE_TENANT_HITS) + c(SERVE_TENANT_MISSES)
        ),
    ),
}


def derived_metrics(snapshot: dict) -> Dict[str, float]:
    """Every :data:`DERIVED_CATALOG` ratio the snapshot's counters form.

    Ratios with a zero denominator are left out, so partially
    instrumented traces still render.
    """
    counters = snapshot.get("counters", {})
    out: Dict[str, float] = {}
    for name, (_, compute) in DERIVED_CATALOG.items():
        value = compute(lambda key: counters.get(key, 0))
        if value is not None:
            out[name] = value
    return out


def probe_overhead(snapshot: dict) -> Dict[str, float]:
    """Probe wall-clock accounting from the ``probe.*`` timings.

    Returns total probe seconds, the ``fit`` span total, and the
    overhead fraction (probe seconds / fit seconds) when both exist —
    the number the ≤5 % bench gate watches.
    """
    timings = snapshot.get("timings", {})
    probe_s = sum(
        v["total"] for k, v in timings.items() if k.startswith("probe.")
    )
    out: Dict[str, float] = {}
    if probe_s:
        out["probe.seconds"] = probe_s
    fit = snapshot.get("spans", {}).get("fit")
    if fit and fit.get("total"):
        out["fit.seconds"] = fit["total"]
        if probe_s:
            out["probe.overhead_frac"] = probe_s / fit["total"]
    return out


def read_metric(entry: Dict[str, Any], snapshot: dict) -> Optional[float]:
    """One metric named by an SLO-spec-style entry; None when absent.

    ``{"histogram": name, "quantile": q, "scale": s}``, ``{"gauge":
    name}``, ``{"counter": name}``, ``{"ratio": [num, den]}`` (0/0 reads
    as 0) or ``{"series_last": name}``.
    """
    if "histogram" in entry:
        payload = snapshot.get("histograms", {}).get(entry["histogram"])
        if payload is None:
            return None
        q = Histogram.from_snapshot(payload).quantile(float(entry["quantile"]))
        if q is None:
            return None
        return q * float(entry.get("scale", 1.0))
    if "gauge" in entry:
        value = snapshot.get("gauges", {}).get(entry["gauge"])
        return None if value is None else float(value)
    if "counter" in entry:
        value = snapshot.get("counters", {}).get(entry["counter"])
        return None if value is None else float(value)
    if "ratio" in entry:
        num_name, den_name = entry["ratio"]
        counters = snapshot.get("counters", {})
        if num_name not in counters and den_name not in counters:
            return None
        den = float(counters.get(den_name, 0))
        return float(counters.get(num_name, 0)) / den if den else 0.0
    points = snapshot.get("series", {}).get(entry["series_last"])
    return float(points[-1][1]) if points else None


# ---------------------------------------------------------------------------
# rows and tables
# ---------------------------------------------------------------------------
class Row(NamedTuple):
    """One report line: a name, its formatted value cells, a description.

    A series row also carries its ``(indices, values)`` points, which the
    HTML report draws as a sparkline.
    """

    name: str
    cells: Tuple[str, ...]
    desc: str = ""
    points: Optional[Tuple[List[int], List[float]]] = None


class Table(NamedTuple):
    """One report section: a title, column headers and its rows.

    ``columns`` heads the name column and then each value cell; an empty
    table renders as ``(no <title> recorded)``.
    """

    title: str
    columns: Tuple[str, ...]
    rows: List[Row]


def _fmt(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return f"{int(value):,}"


def _describe(name: str, catalog: Dict[str, str], prefixes: Dict[str, str]) -> str:
    if name in catalog:
        return catalog[name]
    return next((d for p, d in prefixes.items() if name.startswith(p)), "")


def counter_table(snapshot: dict) -> Table:
    """Counters and derived ratios sorted by name, then gauges."""
    values = dict(snapshot.get("counters", {}))
    values.update(derived_metrics(snapshot))
    rows = [
        Row(name, (_fmt(values[name]),),
            COUNTER_CATALOG.get(name) or DERIVED_CATALOG.get(name, ("",))[0])
        for name in sorted(values)
    ]
    gauges = snapshot.get("gauges", {})
    rows += [
        Row(name, (_fmt(gauges[name]),),
            "(gauge) " + _describe(name, GAUGE_CATALOG, GAUGE_PREFIXES))
        for name in sorted(gauges)
    ]
    return Table("Counters", ("metric", "value"), rows)


def _span_table(snapshot: dict) -> Table:
    """The span tree indented by path depth, then the flat timings."""
    spans = snapshot.get("spans", {})
    timings = snapshot.get("timings", {})
    named = [
        ("  " * path.count("/") + path.rsplit("/", 1)[-1], spans[path])
        for path in sorted(spans)
    ] + [(name, timings[name]) for name in sorted(timings)]
    rows = [Row(name, (f"{v['count']}", f"{v['total']:.3f}")) for name, v in named]
    return Table("Spans & timings", ("span", "n", "total (s)"), rows)


def series_table(snapshot: dict) -> Table:
    """Each series' point count, last point and range."""
    rows = []
    for name in sorted(snapshot.get("series", {})):
        idx, values = series_points(snapshot, name)
        if values:
            cells = (str(len(values)), str(idx[-1])) + tuple(
                f"{v:.4g}" for v in (values[-1], min(values), max(values))
            )
            desc = _describe(name, SERIES_CATALOG, SERIES_PREFIXES)
            rows.append(Row(name, cells, desc, (idx, values)))
    columns = ("series", "n", "last at", "last", "min", "max")
    return Table("Time series", columns, rows)


def _histogram_table(snapshot: dict) -> Table:
    """Count, quantiles, max and mean of each histogram, in milliseconds
    (every catalogued histogram records seconds)."""
    rows = []
    histograms = snapshot.get("histograms", {})
    for name in sorted(histograms):
        hist = Histogram.from_snapshot(histograms[name])
        if hist.count:
            ms = [hist.quantile(q) for q in (0.5, 0.9, 0.99)]
            ms = [v * 1e3 for v in ms + [hist.max, hist.mean]]
            desc = _describe(name, HISTOGRAM_CATALOG, HISTOGRAM_PREFIXES)
            rows.append(Row(name, (f"{hist.count:,}",)
                            + tuple(f"{v:.4g}" for v in ms), desc))
    columns = ("histogram", "n", "p50 (ms)", "p90 (ms)", "p99 (ms)",
               "max (ms)", "mean (ms)")
    return Table("Latency histograms", columns, rows)


_OVERHEAD = {
    "probe.seconds": "total probe wall-clock",
    "fit.seconds": "total fit wall-clock",
    "probe.overhead_frac": "probe wall-clock over fit wall-clock",
}


def _overhead_table(snapshot: dict) -> Table:
    """:func:`probe_overhead`'s accounting (each probe's own timing is a
    row of the spans table)."""
    rows = [
        Row(key, (f"{v:.2%}" if key.endswith("frac") else f"{v:.3f}s",),
            _OVERHEAD[key])
        for key, v in probe_overhead(snapshot).items()
    ]
    return Table("Probe overhead", ("probe", "value"), rows)


#: sections that slice the metric rows by name prefix, shown only when
#: the snapshot has such rows.
SLICES = (
    ("Serving", "serve."),
    ("Streaming", "stream."),
    ("SLO error budgets", SLO_BURN_PREFIX),
)


def report_tables(snapshot: dict) -> List[Table]:
    """Every section of a report on one snapshot, in print order.

    Counters, spans, series and probe overhead always appear (empty ones
    say so); histograms and the :data:`SLICES` only when they have rows.
    """
    counters = counter_table(snapshot)
    histograms = _histogram_table(snapshot)
    tables = [counters, _span_table(snapshot), series_table(snapshot)]
    if histograms.rows:
        tables.append(histograms)
    for title, prefix in SLICES:
        rows = [row for row in counters.rows if row.name.startswith(prefix)]
        if rows:
            tables.append(counters._replace(title=title, rows=rows))
    tables.append(_overhead_table(snapshot))
    return tables


# ---------------------------------------------------------------------------
# plain text
# ---------------------------------------------------------------------------
def format_text(table: Table) -> str:
    """Fixed-width text: names left-aligned, values right, then the
    description; a header line first."""
    if not table.rows:
        return f"  (no {table.title.lower()} recorded)"
    grid = [(table.columns, "")] + [((r.name,) + r.cells, r.desc) for r in table.rows]
    widths = [max(len(cells[i]) for cells, _ in grid) for i in range(len(table.columns))]
    lines = []
    for cells, desc in grid:
        text = [cells[0].ljust(widths[0])]
        text += [cell.rjust(width) for cell, width in zip(cells[1:], widths[1:])]
        lines.append(("  " + "  ".join(text + [desc])).rstrip())
    return "\n".join(lines)


def render_counters(snapshot: dict) -> str:
    """Counter table (sorted by name), derived ratios and gauges."""
    return format_text(counter_table(snapshot))


def render_spans(snapshot: dict) -> str:
    """Span tree indented by path depth, with per-path count and time."""
    return format_text(_span_table(snapshot))


def render_series(snapshot: dict) -> str:
    """One line per recorded series: point count, last point and range."""
    return format_text(series_table(snapshot))


def render_histograms(snapshot: dict) -> str:
    """One line per log-bucket histogram: count, quantiles and range."""
    return format_text(_histogram_table(snapshot))


def render_trace(snapshot: dict, title: str = "trace") -> str:
    """Full human-readable dump: every :func:`report_tables` section."""
    parts = [f"{title}\n{'=' * len(title)}"]
    parts += [f"{t.title}:\n{format_text(t)}" for t in report_tables(snapshot)]
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# monitor headlines
# ---------------------------------------------------------------------------
def _count(*names: str) -> Callable[[dict, dict], float]:
    return lambda snap, rec: sum(snap.get("counters", {}).get(n, 0) for n in names)


def _metric(**entry: Any) -> Callable[[dict, dict], Optional[float]]:
    return lambda snap, rec: read_metric(entry, snap)


#: ``repro monitor``'s line per snapshot kind: its tag, the counter that
#: marks the kind (None: any other snapshot) and ``(key, read, format)``
#: fields; a field whose ``read(snapshot, record)`` is None is left out.
HEADLINES: Tuple[Tuple[str, Optional[str], tuple], ...] = (
    ("serve", SERVE_REQUESTS, (
        ("served", _count(SERVE_REQUESTS), "{:.0f}"),
        ("qps", lambda snap, rec: (
            _count(SERVE_REQUESTS)(snap, rec) / float(rec["elapsed"])
            if rec.get("elapsed") else None), "{:.0f}"),
        ("p99", _metric(histogram=HIST_SERVE_LATENCY, quantile=0.99,
                        scale=1e3), "{:.2f}ms"),
        ("shed", _count(SERVE_SHED_QUEUE_FULL, SERVE_SHED_DEADLINE), "{:.0f}"),
        ("handler_errors",
         lambda snap, rec: _count(SERVE_HANDLER_ERRORS)(snap, rec) or None,
         "{:.0f}"),
    )),
    ("stream", STREAM_BATCHES, (
        ("batches", _count(STREAM_BATCHES), "{:.0f}"),
        ("rebuilds", _count(STREAM_REBUILDS), "{:.0f}"),
        ("compactions", _count(STREAM_COMPACTIONS), "{:.0f}"),
        ("batch_p99", _metric(histogram=HIST_STREAM_BATCH_SECONDS,
                              quantile=0.99, scale=1e3), "{:.2f}ms"),
        ("acc", _metric(series_last=SERIES_STREAM_ACCURACY), "{:.4f}"),
    )),
    ("trace", None, (
        ("epochs", lambda snap, rec: (
            len(series_points(snap, SERIES_EPOCH_LOSS)[1]) or None), "{:d}"),
        ("loss", _metric(series_last=SERIES_EPOCH_LOSS), "{:.4g}"),
        ("val_acc", _metric(series_last=SERIES_VAL_ACCURACY), "{:.4f}"),
        ("probe_overhead", lambda snap, rec: (
            probe_overhead(snap).get("probe.overhead_frac")), "{:.1%}"),
    )),
)


def headline(record: dict) -> str:
    """One :data:`HEADLINES` line for a sink record with a snapshot;
    ``counters=<n>`` stands in when no field has a value."""
    snapshot = record["snapshot"]
    counters = snapshot.get("counters", {})
    tag, _, fields = next(h for h in HEADLINES if h[1] is None or h[1] in counters)
    parts = [f"[{tag}] {record.get('label', record.get('kind', 'trace'))}:"]
    for key, read, fmt in fields:
        value = read(snapshot, record)
        if value is not None:
            parts.append(f"{key}={fmt.format(value)}")
    if len(parts) == 1:
        parts.append(f"counters={len(counters)}")
    return " ".join(parts)
