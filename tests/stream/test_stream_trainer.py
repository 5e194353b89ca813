"""Unit tests for the online continual trainer.

Fast configurations throughout: tiny networks, short streams.  The
kill-resume bitwise guarantees live in ``test_stream_resume.py``; this
file covers construction validation, the maintenance policies (drift
rebuilds, gauge-driven compaction, the count baseline) and the
observability contract.
"""

import numpy as np
import pytest

from repro.core.standard import StandardTrainer
from repro.nn.network import MLP
from repro.obs import InMemoryRecorder, is_catalogued_series
from repro.obs.counters import COUNTER_CATALOG, GAUGE_CATALOG
from repro.stream.trainer import (
    REBUILD_MODES,
    StreamTrainer,
    _NEVER,
    make_stream_trainer,
    never_rebuild,
)

FAST = dict(
    dim=12, n_classes=3, width=16, depth=2, batch_size=10,
    drift_per_batch=0.02, eval_every=None, seed=0,
)


class TestValidation:
    def test_unknown_rebuild_mode(self):
        with pytest.raises(ValueError, match="rebuild"):
            make_stream_trainer(rebuild="sometimes", **FAST)

    @pytest.mark.parametrize(
        "kw",
        [
            {"drift_check_every": 0},
            {"compact_check_every": 0},
            {"compact_garbage_frac": 0.0},
            {"eval_every": 0},
            {"checkpoint_every": 0},
        ],
    )
    def test_invalid_cadences(self, kw):
        kwargs = dict(FAST)
        kwargs.update(kw)
        with pytest.raises(ValueError):
            make_stream_trainer(**kwargs)

    def test_drift_mode_needs_hash_indexes(self):
        """Drift-triggered rebuilds are meaningless without LSH tables."""
        from repro.data.streams import DriftingStream

        net = MLP([12, 16, 3], seed=0)
        trainer = StandardTrainer(net, seed=0)
        stream = DriftingStream(12, 3, seed=1)
        with pytest.raises(ValueError, match="hash indexes"):
            StreamTrainer(trainer, stream, rebuild="drift")

    def test_drift_mode_needs_a_drift_threshold(self):
        """The drift-gated refresh is the trainer's; without a threshold
        it would re-hash every touched column."""
        from repro.core.alsh_approx import ALSHApproxTrainer
        from repro.data.streams import DriftingStream

        trainer = ALSHApproxTrainer(MLP([12, 16, 3], seed=0), seed=0)
        stream = DriftingStream(12, 3, seed=1)
        with pytest.raises(ValueError, match="drift_threshold"):
            StreamTrainer(trainer, stream, rebuild="drift")
        StreamTrainer(trainer, stream, rebuild="count")

    def test_rebuild_modes_constant(self):
        assert set(REBUILD_MODES) == {"drift", "count", "none"}


class TestDriftPolicy:
    def test_drift_mode_disarms_count_scheduler(self):
        st = make_stream_trainer(rebuild="drift", **FAST)
        assert st.trainer.rebuild.early_every == _NEVER
        assert st.trainer.rebuild.late_every == _NEVER

    def test_count_mode_keeps_paper_scheduler(self):
        st = make_stream_trainer(
            rebuild="count", count_early_every=100, count_late_every=1000,
            count_warmup=500, **FAST,
        )
        assert st.trainer.rebuild.early_every == 100
        assert st.trainer.rebuild.late_every == 1000

    def test_drift_rebuilds_fire_and_rehash_columns(self):
        st = make_stream_trainer(
            rebuild="drift", drift_threshold=0.001, drift_check_every=5,
            lr=0.01, **FAST,
        )
        st.run(30, resume=False)
        assert st.rebuilds > 0
        assert st.trainer.rehashed_columns > 0

    def test_high_threshold_never_rebuilds(self):
        st = make_stream_trainer(
            rebuild="drift", drift_threshold=1e9, drift_check_every=5, **FAST,
        )
        st.run(30, resume=False)
        assert st.rebuilds == 0
        assert st.trainer.rehashed_columns == 0

    def test_none_mode_never_rebuilds(self):
        st = make_stream_trainer(rebuild="none", lr=0.01, **FAST)
        summary = st.run(30, resume=False)
        assert summary["rebuilds"] == 0
        assert st.trainer.rehashed_columns == 0

    def test_count_mode_reports_scheduler_rebuilds(self):
        st = make_stream_trainer(
            rebuild="count", count_early_every=50, count_late_every=50,
            count_warmup=0, **FAST,
        )
        summary = st.run(30, resume=False)  # 300 samples / 50 = 6 refreshes
        assert summary["rebuilds"] == 6

    def test_count_mode_progress_lines_report_scheduler_rebuilds(self, capsys):
        st = make_stream_trainer(
            rebuild="count", count_early_every=50, count_late_every=50,
            count_warmup=0, **FAST,
        )
        summary = st.run(30, resume=False, verbose=True, log_every=15)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[0].strip() for line in lines] == [
            "batch 15", "batch 30",
        ]
        assert "rebuilds 3," in lines[0]  # 150 samples / 50
        assert f"rebuilds {summary['rebuilds']}," in lines[1]


class TestCompactionPolicy:
    def test_gauge_compaction_fires_and_bounds_garbage(self):
        st = make_stream_trainer(
            rebuild="drift", drift_threshold=0.001, drift_check_every=1,
            compact_garbage_frac=0.05, compact_check_every=1, lr=0.01, **FAST,
        )
        st.run(40, resume=False)
        assert st.compactions > 0
        assert st.garbage_fraction() <= 0.5

    def test_disabled_compaction_leaves_backend_threshold(self):
        st = make_stream_trainer(
            rebuild="drift", drift_threshold=0.001, drift_check_every=1,
            compact_garbage_frac=None, compact_check_every=1, lr=0.01, **FAST,
        )
        st.run(40, resume=False)
        assert st.compactions == 0
        # The backend's own per-table threshold still keeps it bounded.
        assert st.garbage_fraction() <= 0.6


class TestRunLoop:
    def test_n_batches_is_absolute_position(self):
        st = make_stream_trainer(**FAST)
        st.run(10, resume=False)
        summary = st.run(10, resume=False)
        assert st.batches_done == 10
        assert summary["trained_batches"] == 0

    def test_eval_history_follows_cadence(self):
        kwargs = dict(FAST)
        kwargs["eval_every"] = None
        st = make_stream_trainer(**{**kwargs, "eval_every": 10,
                                    "eval_samples": 30})
        st.run(25, resume=False)
        assert [int(b) for b, _ in st.eval_history] == [10, 20]

    def test_summary_fields(self):
        st = make_stream_trainer(**FAST)
        summary = st.run(5, resume=False)
        for key in (
            "batches", "samples", "trained_batches", "samples_per_s",
            "last_loss", "rebuild_mode", "rebuilds", "compactions",
            "checkpoints", "garbage_frac", "eval_history",
        ):
            assert key in summary
        assert summary["batches"] == 5
        assert summary["samples"] == 50


class TestObservability:
    def test_counters_and_series_are_catalogued(self):
        recorder = InMemoryRecorder()
        st = make_stream_trainer(
            rebuild="drift", drift_threshold=0.001, drift_check_every=2,
            compact_garbage_frac=0.05, compact_check_every=2,
            recorder=recorder, lr=0.01,
            **{**FAST, "eval_every": 10},
        )
        st.run(20, resume=False)
        snapshot = recorder.snapshot()
        assert snapshot["counters"]["stream.batches"] == 20
        assert snapshot["counters"]["stream.samples"] == 200
        assert snapshot["counters"]["stream.drift_checks"] == 10
        assert snapshot["counters"]["stream.evals"] == 2
        for name in snapshot["counters"]:
            assert name in COUNTER_CATALOG, name
        for name in snapshot.get("gauges", {}):
            assert name in GAUGE_CATALOG, name
        for name in snapshot.get("series", {}):
            assert is_catalogued_series(name), name

    def test_null_recorder_runs_silently(self):
        st = make_stream_trainer(**FAST)
        st.run(10, resume=False)
        assert not st.obs.enabled


class TestStreamingReport:
    def test_html_report_gains_streaming_section(self):
        from repro.obs.html import render_html_report

        recorder = InMemoryRecorder()
        st = make_stream_trainer(recorder=recorder,
                                 **{**FAST, "eval_every": 10})
        st.run(10, resume=False)
        html = render_html_report([{"snapshot": recorder.snapshot()}])
        assert "<h2>Streaming</h2>" in html
        section = html.split("<h2>Streaming</h2>")[1].split("<h2>")[0]
        assert "<td>stream.batches</td>" in section
        assert COUNTER_CATALOG["stream.batches"] in section

    def test_training_only_report_has_no_streaming_section(self):
        from repro.obs.html import render_html_report

        html = render_html_report([{"snapshot": {"counters": {"lsh.builds": 1}}}])
        assert "<h2>Streaming</h2>" not in html
