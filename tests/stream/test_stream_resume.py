"""Kill-and-resume equality for the streaming trainer.

The continual-training counterpart of ``tests/core/test_resume_equality``:
a streaming session killed at any batch and resumed from its continuous
checkpoint must be *bitwise identical* to the uninterrupted session —
weights, optimizer slots, trainer and stream RNG streams, LSH table
contents, drift-detector references (and therefore every subsequent
``drifted()`` decision), eval history and recorded series.  Only two
things may differ: wall-clock throughput, and the flat backend's
*physical* tombstone layout — a restore re-packs the tables clean, and
compaction layout is explicitly outside the backend's contract (it
never affects candidate sets), so the ``stream.garbage_frac`` gauge
series and the compaction tally are maintenance telemetry, not
trajectory.

"Killed" is simulated the honest way: a first StreamTrainer runs to the
kill point writing checkpoints, then a *freshly constructed* one — as a
restarted process would build it — runs to the full horizon with
``resume=True`` picking the checkpoint up mid-stream.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.obs import InMemoryRecorder
from repro.obs.probes import LSHRecallProbe, ProbeManager
from repro.stream.trainer import make_stream_trainer, run_smoke

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TOTAL = 60
KILL_AT = 33  # deliberately off every cadence multiple

BASE = dict(
    dim=12, n_classes=3, width=16, depth=2, batch_size=10,
    drift_per_batch=0.03, drift_threshold=0.02, drift_check_every=5,
    compact_garbage_frac=0.3, compact_check_every=5,
    eval_every=20, eval_samples=40, lr=0.01, seed=0,
)


def build(tmp_path=None, recorder=None, probes=False, **overrides):
    """A freshly constructed streaming session, as a restart would."""
    kwargs = dict(BASE)
    kwargs.update(overrides)
    if tmp_path is not None:
        kwargs.update(checkpoint_dir=tmp_path, checkpoint_every=10)
    if recorder is not None:
        kwargs["recorder"] = recorder
    if probes:
        kwargs["probe_manager"] = ProbeManager(
            [LSHRecallProbe(k=5, max_queries=2)],
            probe_every=10, budget=None, seed=99,
        )
    return make_stream_trainer(**kwargs)


def run_kill_resume(tmp_path, **overrides):
    full = build(**overrides)
    full.run(TOTAL, resume=False)
    killed = build(tmp_path=tmp_path, **overrides)
    killed.run(KILL_AT, resume=False)
    resumed = build(tmp_path=tmp_path, **overrides)
    resumed.run(TOTAL, resume=True)
    return full, resumed


def assert_streams_identical(full, resumed):
    for i, (a, b) in enumerate(
        zip(full.trainer.net.layers, resumed.trainer.net.layers)
    ):
        np.testing.assert_array_equal(a.W, b.W, err_msg=f"layer {i} W")
        np.testing.assert_array_equal(a.b, b.b, err_msg=f"layer {i} b")
    assert (
        full.trainer.rng.bit_generator.state
        == resumed.trainer.rng.bit_generator.state
    ), "trainer RNG diverged"
    assert (
        full.stream.rng.bit_generator.state
        == resumed.stream.rng.bit_generator.state
    ), "stream RNG diverged"
    np.testing.assert_array_equal(
        full.stream.prototypes(), resumed.stream.prototypes()
    )
    assert full.eval_history == resumed.eval_history
    assert full.batches_done == resumed.batches_done
    assert full.samples_done == resumed.samples_done
    for i, (ia, ib) in enumerate(
        zip(full.trainer.indexes, resumed.trainer.indexes)
    ):
        meta_a, arrays_a = ia.state_dict()
        meta_b, arrays_b = ib.state_dict()
        assert meta_a == meta_b, f"index {i} meta"
        assert arrays_a.keys() == arrays_b.keys()
        for name in arrays_a:
            np.testing.assert_array_equal(
                arrays_a[name], arrays_b[name],
                err_msg=f"index {i} table array {name}",
            )


class TestKillResumeEquality:
    def test_drift_mode_bitwise_identical(self, tmp_path):
        full, resumed = run_kill_resume(tmp_path)
        assert_streams_identical(full, resumed)
        assert full.rebuilds == resumed.rebuilds
        assert (
            full.trainer.rehashed_columns == resumed.trainer.rehashed_columns
        )

    def test_drift_references_and_decisions_identical(self, tmp_path):
        """The detector's reference snapshot survives the restore, so the
        resumed run makes bitwise-identical ``drifted()`` decisions —
        checked directly on the references and on a probe query over
        every column."""
        full, resumed = run_kill_resume(tmp_path)
        for i, (ta, tb) in enumerate(zip(full.trainer._drift, resumed.trainer._drift)):
            np.testing.assert_array_equal(
                ta.reference, tb.reference,
                err_msg=f"layer {i} drift reference",
            )
            W = full.trainer.net.layers[i].W
            cols = np.arange(W.shape[1])
            np.testing.assert_array_equal(
                ta.drifted(W, cols), tb.drifted(resumed.trainer.net.layers[i].W, cols),
                err_msg=f"layer {i} drifted() decisions",
            )

    def test_count_mode_with_inner_drift_tracker(self, tmp_path):
        """The paper-policy path: the inner trainer's own scheduler and
        drift-gated refresh state must survive resume too."""
        full, resumed = run_kill_resume(
            tmp_path,
            rebuild="count",
            count_early_every=50, count_late_every=200, count_warmup=300,
        )
        assert_streams_identical(full, resumed)
        assert (
            full.trainer.rebuild.rebuild_count
            == resumed.trainer.rebuild.rebuild_count
        )
        assert (
            full.trainer.rebuild.samples_seen
            == resumed.trainer.rebuild.samples_seen
        )

    def test_resume_at_every_checkpoint_grain(self, tmp_path):
        """The guarantee holds wherever the kill lands relative to the
        checkpoint period, including between checkpoints (the trailing
        partial-period checkpoint covers those)."""
        full = build()
        full.run(TOTAL, resume=False)
        for kill_at in (7, 10, 29, 51):
            d = tmp_path / f"kill{kill_at}"
            killed = build(tmp_path=d)
            killed.run(kill_at, resume=False)
            resumed = build(tmp_path=d)
            resumed.run(TOTAL, resume=True)
            assert_streams_identical(full, resumed)

    def test_series_and_probes_survive_resume(self, tmp_path):
        """Recorded stream series and probe state are part of the resumed
        trajectory: the merged series of the resumed run equal the
        uninterrupted run's."""
        rec_full = InMemoryRecorder()
        full = build(recorder=rec_full, probes=True)
        full.run(TOTAL, resume=False)

        rec_killed = InMemoryRecorder()
        killed = build(tmp_path=tmp_path, recorder=rec_killed, probes=True)
        killed.run(KILL_AT, resume=False)
        rec_resumed = InMemoryRecorder()
        resumed = build(tmp_path=tmp_path, recorder=rec_resumed, probes=True)
        resumed.run(TOTAL, resume=True)

        assert_streams_identical(full, resumed)
        a = rec_full.snapshot().get("series", {})
        b = rec_resumed.snapshot().get("series", {})
        assert a.keys() == b.keys()
        for name in a:
            if name == "stream.garbage_frac":
                # Physical tombstone layout resets at restore (the tables
                # re-pack clean), so the gauge readings legitimately
                # differ after the kill point; only the cadence must hold.
                assert [i for i, _ in a[name]] == [i for i, _ in b[name]]
                continue
            assert a[name] == b[name], f"series {name} diverged"

    def test_histograms_carry_across_resume(self, tmp_path):
        """The per-batch timing histogram rides the checkpoint: a resumed
        session's count covers the whole stream, pre-kill batches
        included, not just the batches it ran itself."""
        from repro.obs.counters import HIST_STREAM_BATCH_SECONDS

        rec_killed = InMemoryRecorder()
        killed = build(tmp_path=tmp_path, recorder=rec_killed)
        killed.run(KILL_AT, resume=False)
        killed_snap = rec_killed.snapshot()["histograms"]
        assert killed_snap[HIST_STREAM_BATCH_SECONDS]["count"] == KILL_AT

        rec_resumed = InMemoryRecorder()
        resumed = build(tmp_path=tmp_path, recorder=rec_resumed)
        resumed.run(TOTAL, resume=True)
        resumed_snap = rec_resumed.snapshot()["histograms"]
        # Resume restarts from the last checkpoint (a multiple of the
        # checkpoint cadence at or before the kill), so the carried
        # histogram covers checkpointed batches plus the replayed tail.
        assert resumed_snap[HIST_STREAM_BATCH_SECONDS]["count"] == TOTAL
        # wall-clock samples are machine noise, but the carried portion
        # must be real timings, not zeros
        assert resumed_snap[HIST_STREAM_BATCH_SECONDS]["sum"] > 0.0

    def test_resume_false_restarts_from_scratch(self, tmp_path):
        first = build(tmp_path=tmp_path)
        first.run(20, resume=False)
        again = build(tmp_path=tmp_path)
        again.run(20, resume=False)
        assert_streams_identical(first, again)

    def test_method_mismatch_rejected(self, tmp_path):
        first = build(tmp_path=tmp_path, checkpoint_tag="shared")
        first.run(12, resume=False)
        from repro.core.standard import StandardTrainer
        from repro.data.streams import DriftingStream
        from repro.nn.network import MLP
        from repro.stream.trainer import StreamTrainer

        other = StreamTrainer(
            StandardTrainer(MLP([12, 16, 3], seed=0), seed=0),
            DriftingStream(12, 3, seed=1),
            rebuild="none",
            checkpoint_dir=tmp_path,
            checkpoint_tag="shared",
        )
        with pytest.raises(ValueError, match="stream:alsh"):
            other.run(20, resume=True)

    def test_architecture_mismatch_rejected(self, tmp_path):
        first = build(tmp_path=tmp_path, checkpoint_tag="shared")
        first.run(12, resume=False)
        other = build(tmp_path=tmp_path, checkpoint_tag="shared", width=24)
        with pytest.raises(ValueError, match="shape mismatch"):
            other.run(20, resume=True)


class TestCheckpointFixture:
    """A mid-stream checkpoint written before stream checkpoints shared
    the inner trainer's state capture.

    ``tests/fixtures/stream_probed.ckpt.npz`` was written by the last
    version whose stream trainer captured trainer state itself, with::

        st = build(tmp_path=out, recorder=InMemoryRecorder(), probes=True,
                   checkpoint_tag="stream_probed")
        st.run(KILL_AT, resume=False)

    (``build`` as above, checkpointing every 10 batches).  Batch 33 is a
    multiple of no cadence, so the file is the trailing partial-period
    checkpoint.  Resuming from it must reproduce the uninterrupted run.
    """

    def test_resumes_bitwise(self, tmp_path):
        shutil.copy(FIXTURES / "stream_probed.ckpt.npz", tmp_path)
        rec_full = InMemoryRecorder()
        full = build(recorder=rec_full, probes=True)
        full.run(TOTAL, resume=False)
        rec_resumed = InMemoryRecorder()
        resumed = build(tmp_path=tmp_path, recorder=rec_resumed, probes=True,
                        checkpoint_tag="stream_probed")
        summary = resumed.run(TOTAL, resume=True)

        assert summary["trained_batches"] == TOTAL - KILL_AT
        assert_streams_identical(full, resumed)
        a = rec_full.snapshot()["series"]
        b = rec_resumed.snapshot()["series"]
        assert a.keys() == b.keys()
        assert any(name.startswith("probe.lsh.recall") for name in a)
        for name in a.keys() - {"stream.garbage_frac"}:
            assert a[name] == b[name], f"series {name} diverged"


class TestSmoke:
    def test_run_smoke_passes(self):
        assert run_smoke(seed=0, verbose=False) == 0
