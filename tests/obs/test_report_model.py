"""One report model: trace-report, the HTML report and monitor share rows.

``render_trace`` and ``render_html_report`` format the same
``report_tables``; these tests read the rows back out of both outputs.
"""

import re
from html import escape

from repro.obs import (
    attach_burn_gauges,
    derived_metrics,
    render_html_report,
    render_trace,
    summarize_record,
    trace_record,
)
from repro.obs.report import SLICES


def _text_rows(text, title):
    """Row names of one ``render_trace`` section (header line skipped)."""
    lines = text.split(f"\n{title}:\n", 1)[1].split("\n")[1:]
    names = []
    for line in lines:
        if not line.startswith("  "):
            break
        names.append(line.split()[0])
    return names


def _html_rows(html, title):
    """Row names of one ``<h2>`` section of the HTML report."""
    section = html.split(f"<h2>{escape(title)}</h2>", 1)[1].split("<h2>")[0]
    return re.findall(r"<tr><td>([^<]*)</td>", section)


def _metric_names(snapshot):
    values = set(snapshot["counters"]) | set(derived_metrics(snapshot))
    return sorted(values) + sorted(snapshot["gauges"])


def test_both_reports_list_the_same_metric_rows(report_snapshot):
    expected = _metric_names(report_snapshot)
    text = render_trace(report_snapshot)
    html = render_html_report([trace_record(report_snapshot)])
    assert _text_rows(text, "Counters") == expected
    assert _html_rows(html, "Counters") == expected


def test_slices_are_the_prefixed_metric_rows(report_snapshot):
    text = render_trace(report_snapshot)
    html = render_html_report([trace_record(report_snapshot)])
    names = _metric_names(report_snapshot)
    for title, prefix in SLICES[:2]:
        rows = [name for name in names if name.startswith(prefix)]
        assert rows
        assert _text_rows(text, title) == rows
        assert _html_rows(html, title) == rows
    # No SLO was evaluated, so neither report has an SLO section.
    assert "SLO error budgets" not in text
    assert "SLO error budgets" not in html


def test_slo_section_holds_the_burn_gauges(report_snapshot):
    spec = [{"name": "p99_ms", "histogram": "serve.latency_s",
             "quantile": 0.99, "scale": 1000.0, "max": 1e9}]
    snapshot = attach_burn_gauges(report_snapshot, spec)
    html = render_html_report([trace_record(snapshot)])
    assert _html_rows(html, "SLO error budgets") == ["slo.burn.p99_ms"]
    assert _text_rows(render_trace(snapshot), "SLO error budgets") == [
        "slo.burn.p99_ms"
    ]


def test_serving_ratios_are_derived(report_snapshot):
    derived = derived_metrics(report_snapshot)
    counters = report_snapshot["counters"]
    assert derived["serve.requests_per_batch"] == (
        counters["serve.requests"] / counters["serve.batches"]
    )
    assert derived["serve.head.candidates_per_query"] == (
        counters["serve.head.candidates"] / counters["serve.head.queries"]
    )
    assert derived["serve.tenant.hit_rate"] == 2 / 6  # "abacab", 2 heads


def test_monitor_headline_of_a_merged_snapshot(report_snapshot):
    line = summarize_record(trace_record(report_snapshot, label="all"))
    assert line.startswith("[serve] all: served=40 ")
    assert "p99=" in line and "shed=0" in line
