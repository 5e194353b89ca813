"""Catalogue coverage: every name an instrumented run emits is documented.

Satellite guarantee: run all six trainers with probes attached and
assert every counter, gauge and series that lands in the snapshot has a
catalogue entry (``COUNTER_CATALOG`` / ``GAUGE_CATALOG`` /
``SERIES_CATALOG``+``SERIES_PREFIXES``), and every derived ratio a
``DERIVED_CATALOG`` entry, so reports and docs can always describe what
they show.
"""

from html import escape

import pytest

from repro.obs import (
    derived_metrics,
    is_catalogued_series,
    render_html_report,
    render_trace,
    trace_record,
)
from repro.obs.counters import COUNTER_CATALOG, GAUGE_CATALOG
from repro.obs.report import DERIVED_CATALOG
from repro.obs.timeseries import SERIES_CATALOG, SERIES_PREFIXES

from .conftest import TRAINER_NAMES


@pytest.mark.parametrize("name", TRAINER_NAMES)
class TestProbedRunCoverage:
    def test_all_counters_catalogued(self, name, probed_runs):
        emitted = probed_runs[name]["snapshot"]["counters"]
        missing = sorted(set(emitted) - set(COUNTER_CATALOG))
        assert not missing, f"{name} emitted uncatalogued counters: {missing}"

    def test_all_gauges_catalogued(self, name, probed_runs):
        emitted = probed_runs[name]["snapshot"]["gauges"]
        missing = sorted(set(emitted) - set(GAUGE_CATALOG))
        assert not missing, f"{name} emitted uncatalogued gauges: {missing}"

    def test_all_series_catalogued(self, name, probed_runs):
        emitted = probed_runs[name]["snapshot"]["series"]
        missing = sorted(
            s for s in emitted if not is_catalogued_series(s)
        )
        assert not missing, f"{name} emitted uncatalogued series: {missing}"


class TestCatalogueHygiene:
    def test_descriptions_are_nonempty(self):
        for catalogue in (COUNTER_CATALOG, GAUGE_CATALOG, SERIES_CATALOG,
                          SERIES_PREFIXES):
            for name, desc in catalogue.items():
                assert desc.strip(), f"{name} has an empty description"

    def test_no_name_collisions_across_catalogues(self):
        names = (
            list(COUNTER_CATALOG) + list(GAUGE_CATALOG)
            + list(SERIES_CATALOG) + list(SERIES_PREFIXES)
        )
        assert len(names) == len(set(names))

    def test_probe_counters_present(self):
        for name in ("probe.runs", "probe.skipped", "probe.budget_disabled",
                     "probe.points"):
            assert name in COUNTER_CATALOG
        assert "lsh.garbage_frac" in GAUGE_CATALOG


class TestDerivedCoverage:
    def test_every_derived_ratio_has_a_one_line_description(self):
        for name, (desc, _) in DERIVED_CATALOG.items():
            assert desc.strip() and "\n" not in desc, name

    def test_derived_names_are_not_recorded_names(self):
        recorded = (set(COUNTER_CATALOG) | set(GAUGE_CATALOG)
                    | set(SERIES_CATALOG) | set(SERIES_PREFIXES))
        assert not recorded & set(DERIVED_CATALOG)

    def test_both_renderers_print_each_derived_description(
        self, report_snapshot
    ):
        text = render_trace(report_snapshot)
        html = render_html_report([trace_record(report_snapshot)])
        derived = derived_metrics(report_snapshot)
        assert set(derived) == set(DERIVED_CATALOG)
        for name in derived:
            desc = DERIVED_CATALOG[name][0]
            assert any(line.split()[0] == name and line.endswith(desc)
                       for line in text.splitlines() if line.strip()), name
            assert (f"<td>{name}</td>" in html
                    and f'<td class="desc">{escape(desc)}</td>' in html), name
