"""Self-contained single-file HTML run reports.

``python -m repro report`` renders a trace/sweep JSONL into one HTML
file with zero external assets: the theory-vs-measured forward-error
overlay, then every table of :func:`repro.obs.report.report_tables` —
the same rows ``trace-report`` prints — with per-series sparklines.
Everything is inline SVG + CSS custom properties (light and dark via
``prefers-color-scheme``), so the file can be mailed around or attached
to CI as an artifact.

Stdlib only, like the rest of the package core.  The Theorem 7.2
analytical bound is *data* here — the CLI computes it via
``repro.theory.error_propagation.error_ratio`` and passes the points
in; obs never imports theory.
"""

from __future__ import annotations

from html import escape
from typing import Dict, List, Optional, Sequence, Tuple

from .report import Table, counter_table, report_tables, series_table
from .timeseries import SERIES_FWD_REL_ERROR, series_points, split_layer_series

__all__ = ["render_html_report", "forward_error_by_layer"]

# Palette: light/dark token pairs.  Series colors carry identity in the
# marks only; all text wears the ink tokens.
_CSS = """
:root {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --s1: #3987e5; --s2: #d95926; --s3: #1baf7a;
  }
}
:root[data-theme="light"] {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a;
}
:root[data-theme="dark"] {
  --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
  --grid: #2c2c2a; --baseline: #383835;
  --s1: #3987e5; --s2: #d95926; --s3: #1baf7a;
}
body {
  background: var(--surface); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  max-width: 960px; margin: 2rem auto; padding: 0 1rem;
}
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
h3 { font-size: 1rem; color: var(--ink-2); }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 2px 12px 2px 0; vertical-align: middle; }
th { color: var(--ink-2); font-weight: 600;
     border-bottom: 1px solid var(--baseline); }
td:first-child { white-space: pre; }
td.num { font-variant-numeric: tabular-nums; }
.desc { color: var(--ink-3); }
.muted { color: var(--ink-3); }
.legend { display: flex; gap: 1.25rem; margin: 0.25rem 0; color: var(--ink-2); }
.legend .swatch { display: inline-block; width: 14px; height: 3px;
                  vertical-align: middle; margin-right: 6px; }
svg text { fill: var(--ink-2); font: 11px system-ui, sans-serif; }
"""


def _scale(
    values: Sequence[float], lo: float, hi: float, out_lo: float, out_hi: float
) -> List[float]:
    span = hi - lo
    if span <= 0:
        return [(out_lo + out_hi) / 2.0 for _ in values]
    k = (out_hi - out_lo) / span
    return [out_lo + (v - lo) * k for v in values]


def _sparkline(indices: Sequence[int], values: Sequence[float]) -> str:
    """Inline 140x30 sparkline for one series (2px line, no axes)."""
    w, h, pad = 140, 30, 3
    if len(values) == 1:
        xs, ys = [w / 2.0], [h / 2.0]
    else:
        xs = _scale(list(indices), min(indices), max(indices), pad, w - pad)
        ys = _scale(values, min(values), max(values), h - pad, pad)
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    mark = (
        f'<circle cx="{xs[-1]:.1f}" cy="{ys[-1]:.1f}" r="2.5" '
        'fill="var(--s1)"/>'
    )
    line = (
        f'<polyline points="{pts}" fill="none" stroke="var(--s1)" '
        'stroke-width="2" stroke-linejoin="round"/>'
        if len(values) > 1
        else ""
    )
    return (
        f'<svg width="{w}" height="{h}" viewBox="0 0 {w} {h}" '
        f'role="img" aria-label="sparkline">{line}{mark}</svg>'
    )


def forward_error_by_layer(snapshot: dict) -> List[Tuple[int, float]]:
    """Mean measured relative forward error per layer, from the probe
    series — the measured side of the Theorem 7.2 overlay.

    Returns ``[(layer_k, mean_rel_error), ...]`` sorted by layer.
    """
    by_layer: Dict[int, List[float]] = {}
    for name in snapshot.get("series", {}):
        parts = split_layer_series(name)
        if parts is None or parts[0] != SERIES_FWD_REL_ERROR:
            continue
        _, values = series_points(snapshot, name)
        if values:
            by_layer[parts[1]] = list(values)
    return [
        (k, sum(v) / len(v)) for k, v in sorted(by_layer.items())
    ]


def _overlay_chart(
    measured: Sequence[Tuple[int, float]],
    bound: Optional[Sequence[Tuple[int, float]]],
) -> str:
    """Measured per-layer error (series-1) vs analytical bound (series-2).

    One y-axis, layer index on x.  Both curves share the scale; the
    legend carries identity, point markers get native ``<title>``
    tooltips.
    """
    w, h = 640, 260
    ml, mr, mt, mb = 56, 16, 12, 34
    all_pts = list(measured) + list(bound or [])
    if not all_pts:
        return '<p class="muted">(no forward-error probe data)</p>'
    ks = sorted({k for k, _ in all_pts})
    vals = [v for _, v in all_pts]
    v_lo, v_hi = 0.0, max(max(vals), 1e-12)
    v_hi *= 1.05

    def x(k: float) -> float:
        if len(ks) == 1:
            return (ml + w - mr) / 2.0
        return ml + (k - ks[0]) * (w - ml - mr) / (ks[-1] - ks[0])

    def y(v: float) -> float:
        return (h - mb) - (v - v_lo) * (h - mt - mb) / (v_hi - v_lo)

    parts: List[str] = []
    # gridlines + y tick labels (4 ticks)
    for i in range(5):
        v = v_lo + (v_hi - v_lo) * i / 4.0
        yy = y(v)
        stroke = "var(--baseline)" if i == 0 else "var(--grid)"
        parts.append(
            f'<line x1="{ml}" y1="{yy:.1f}" x2="{w - mr}" y2="{yy:.1f}" '
            f'stroke="{stroke}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{yy + 4:.1f}" '
            f'text-anchor="end">{v:.3g}</text>'
        )
    for k in ks:
        parts.append(
            f'<text x="{x(k):.1f}" y="{h - mb + 16}" '
            f'text-anchor="middle">{k}</text>'
        )
    parts.append(
        f'<text x="{(ml + w - mr) / 2:.0f}" y="{h - 4}" '
        'text-anchor="middle">layer</text>'
    )

    def curve(points, color, label):
        if not points:
            return
        pts = " ".join(f"{x(k):.1f},{y(v):.1f}" for k, v in points)
        if len(points) > 1:
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                'stroke-width="2" stroke-linejoin="round"/>'
            )
        for k, v in points:
            parts.append(
                f'<circle cx="{x(k):.1f}" cy="{y(v):.1f}" r="4" '
                f'fill="{color}" stroke="var(--surface)" stroke-width="2">'
                f"<title>{escape(label)} · layer {k}: {v:.4g}</title>"
                "</circle>"
            )

    curve(measured, "var(--s1)", "measured")
    if bound:
        curve(bound, "var(--s2)", "Theorem 7.2 bound")
    svg = (
        f'<svg width="{w}" height="{h}" viewBox="0 0 {w} {h}" role="img" '
        f'aria-label="per-layer forward error">{"".join(parts)}</svg>'
    )
    legend = (
        '<div class="legend">'
        '<span><span class="swatch" style="background:var(--s1)"></span>'
        "measured mean rel. error</span>"
    )
    if bound:
        legend += (
            '<span><span class="swatch" style="background:var(--s2)"></span>'
            "Theorem 7.2 bound ((c+1)/c)^k − 1</span>"
        )
    legend += "</div>"
    return legend + svg


def _table(table: Table) -> str:
    """One report section as an HTML table, series rows with sparklines."""
    if not table.rows:
        return f'<p class="muted">(no {escape(table.title.lower())} recorded)</p>'
    spark = table.rows[0].points is not None
    heads = table.columns[:1] + ("",) * spark + table.columns[1:] + ("",)
    html = ["<table><tr>" + "".join(f"<th>{escape(h)}</th>" for h in heads) + "</tr>"]
    for row in table.rows:
        cells = [f"<td>{escape(row.name)}</td>"]
        if spark:
            cells.append(f"<td>{_sparkline(*row.points)}</td>")
        cells += [f'<td class="num">{escape(cell)}</td>' for cell in row.cells]
        cells.append(f'<td class="desc">{escape(row.desc)}</td>')
        html.append("<tr>" + "".join(cells) + "</tr>")
    return "".join(html) + "</table>"


def render_html_report(
    traces: Sequence[dict],
    title: str = "repro run report",
    merged: Optional[dict] = None,
    theory_bound: Optional[Sequence[Tuple[int, float]]] = None,
    theory_label: Optional[str] = None,
    corrupt: int = 0,
) -> str:
    """Render trace records into one self-contained HTML document.

    Parameters
    ----------
    traces:
        Trace records as loaded from the JSONL sink — dicts with a
        ``"snapshot"`` and optionally a ``"label"``.
    merged:
        Pre-merged snapshot for the rollup sections; when None the
        first trace's snapshot is used (single-run report).
    theory_bound:
        Analytical per-layer bound ``[(k, value), ...]`` computed by
        the caller (Theorem 7.2's ((c+1)/c)^k − 1), overlaid in orange
        against the measured error in blue.
    corrupt:
        Count of corrupt JSONL lines skipped while loading, surfaced
        in the header so silent truncation is visible.
    """
    snapshots = [t.get("snapshot") or {} for t in traces]
    roll = merged if merged is not None else (snapshots[0] if snapshots else {})
    measured = forward_error_by_layer(roll)

    body: List[str] = [f"<h1>{escape(title)}</h1>"]
    meta = f"{len(traces)} trace record(s)"
    if corrupt:
        meta += f" · {corrupt} corrupt line(s) skipped"
    if theory_label:
        meta += f" · {theory_label}"
    body.append(f'<p class="muted">{escape(meta)}</p>')

    body.append("<h2>Per-layer forward error vs Theorem 7.2 bound</h2>")
    body.append(_overlay_chart(measured, theory_bound))

    for table in report_tables(roll):
        body.append(f"<h2>{escape(table.title)}</h2>")
        body.append(_table(table))

    if len(traces) > 1:
        body.append("<h2>Individual runs</h2>")
        for t, snap in zip(traces, snapshots):
            body.append(f"<h3>{escape(str(t.get('label', 'run')))}</h3>")
            body.append(_table(counter_table(snap)))
            body.append(_table(series_table(snap)))

    return (
        "<!doctype html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{escape(title)}</title>\n"
        f"<style>{_CSS}</style>\n"
        "</head><body>\n" + "\n".join(body) + "\n</body></html>\n"
    )
