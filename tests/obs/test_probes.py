"""Quality-probe behaviour: cadence, budget, read-only-ness, resume.

The bitwise read-only guarantee itself lives in ``test_noop.py`` (the
probed digests must match the pre-instrumentation bytes); this file
covers the manager mechanics and the kill-resume series identity.
"""

import numpy as np
import pytest

from repro.core.registry import make_trainer, trainer_names
from repro.nn.network import MLP
from repro.obs import InMemoryRecorder, is_catalogued_series
from repro.obs.counters import (
    PROBE_DISABLED,
    PROBE_RUNS,
    PROBE_SKIPPED,
)
from repro.obs.probes import (
    ForwardErrorProbe,
    LSHRecallProbe,
    MCEstimatorProbe,
    Probe,
    ProbeManager,
    default_probes,
)
from repro.obs.timeseries import SERIES_EPOCH_TIME


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(3)
    return rng.normal(size=(60, 12)), rng.integers(0, 3, size=60)


def build(method="standard", recorder=None, **kwargs):
    net = MLP([12, 16, 16, 3], seed=7)
    return make_trainer(method, net, seed=11, recorder=recorder, **kwargs)


def manager(**kwargs):
    kwargs.setdefault("probe_every", 2)
    kwargs.setdefault("budget", None)
    kwargs.setdefault("seed", 0)
    return ProbeManager(default_probes(), **kwargs)


class TestProbeManager:
    def test_cadence(self, data):
        x, y = data
        trainer = build(recorder=InMemoryRecorder())
        m = ProbeManager([ForwardErrorProbe()], probe_every=3, seed=0)
        trainer.attach_probes(m)
        trainer.fit(x, y, epochs=1, batch_size=10)  # 6 batches
        counters = trainer.obs.snapshot()["counters"]
        assert counters[PROBE_RUNS] == 2  # steps 3 and 6

    def test_validation(self):
        with pytest.raises(ValueError, match="probe_every"):
            ProbeManager([], probe_every=0)
        with pytest.raises(ValueError, match="budget"):
            ProbeManager([], budget=-1.0)

    def test_disabled_recorder_skips_all_work(self, data):
        x, y = data

        class Exploding(Probe):
            name = "exploding"

            def run(self, trainer, step, x, y, rng, recorder):
                raise AssertionError("probe ran under a null recorder")

        trainer = build()  # NULL_RECORDER
        trainer.attach_probes(ProbeManager([Exploding()], probe_every=1))
        trainer.fit(x, y, epochs=1, batch_size=10)

    def test_unsupported_probe_counts_as_skipped(self, data):
        x, y = data
        trainer = build("standard", recorder=InMemoryRecorder())
        m = ProbeManager(
            [LSHRecallProbe(), MCEstimatorProbe()], probe_every=2, seed=0
        )
        trainer.attach_probes(m)
        trainer.fit(x, y, epochs=1, batch_size=10)
        counters = trainer.obs.snapshot()["counters"]
        # standard has neither LSH indexes nor an MC node budget.
        assert counters[PROBE_SKIPPED] == 2 * 3  # 2 probes x 3 firings
        assert PROBE_RUNS not in counters

    def test_budget_overrun_disables_probe_for_rest_of_run(self, data):
        x, y = data
        trainer = build(recorder=InMemoryRecorder())
        m = ProbeManager([ForwardErrorProbe()], probe_every=1, budget=0.0,
                         seed=0)
        trainer.attach_probes(m)
        trainer.fit(x, y, epochs=1, batch_size=10)
        counters = trainer.obs.snapshot()["counters"]
        # First firing runs (and overruns the zero budget); the rest skip.
        assert counters[PROBE_RUNS] == 1
        assert counters[PROBE_DISABLED] == 1
        assert m.disabled == {"forward_error"}

    def test_state_dict_round_trip(self, data):
        x, y = data
        trainer = build(recorder=InMemoryRecorder())
        m = manager()
        trainer.attach_probes(m)
        trainer.fit(x, y, epochs=1, batch_size=10)
        state = m.state_dict()
        fresh = manager(seed=999)
        fresh.load_state_dict(state)
        assert fresh.step == m.step
        assert fresh.disabled == m.disabled
        assert (
            fresh.rng.bit_generator.state == m.rng.bit_generator.state
        )


def kernel_counters(snapshot):
    return {
        name: value
        for name, value in snapshot["counters"].items()
        if name.startswith("kernel.")
    }


class TestProbesAddNoKernelWork:
    """A probe's own products run on the trainer's uninstrumented backend,
    so a probed traced fit records the kernel counters an unprobed one
    does."""

    @pytest.mark.parametrize(
        "method, probe",
        [
            pytest.param(name, ForwardErrorProbe, id=f"{name}-forward_error")
            for name in trainer_names()
        ]
        + [
            pytest.param(
                "alsh",
                lambda: LSHRecallProbe(k=2, max_queries=4),
                id="alsh-lsh_recall",
            )
        ],
    )
    def test_probed_fit_records_unprobed_kernel_counters(self, method, probe):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(40, 8)), rng.integers(0, 3, size=40)

        def fit(probed):
            trainer = make_trainer(
                method, MLP([8, 6, 6, 3], seed=0), seed=1,
                recorder=InMemoryRecorder(),
            )
            if probed:
                trainer.attach_probes(
                    ProbeManager([probe()], probe_every=2, budget=None, seed=0)
                )
            trainer.fit(x, y, epochs=1, batch_size=4)
            return trainer.obs.snapshot()

        probed, bare = fit(True), fit(False)
        assert probed["counters"][PROBE_RUNS] == 5
        assert kernel_counters(bare)
        assert kernel_counters(probed) == kernel_counters(bare)


class TestProbeSeries:
    @pytest.mark.parametrize("method", ["alsh", "mc", "dropout"])
    def test_all_emitted_series_are_catalogued(self, data, method):
        x, y = data
        trainer = build(method, recorder=InMemoryRecorder())
        trainer.attach_probes(manager())
        trainer.fit(x, y, epochs=1, batch_size=10)
        for name in trainer.obs.snapshot()["series"]:
            assert is_catalogued_series(name), name

    def test_probe_series_indexed_by_batch_step(self, data):
        x, y = data
        trainer = build("mc", recorder=InMemoryRecorder())
        trainer.attach_probes(manager(probe_every=2))
        trainer.fit(x, y, epochs=1, batch_size=10)
        series = trainer.obs.snapshot()["series"]
        probe_names = [n for n in series if n.startswith("probe.")]
        assert probe_names
        for name in probe_names:
            indices = [i for i, _ in series[name]]
            assert all(i % 2 == 0 for i in indices), name


class TestKillResumeSeriesIdentity:
    @pytest.mark.parametrize("method", ["standard", "alsh", "mc"])
    def test_resumed_series_identical(self, data, tmp_path, method):
        """A killed-and-resumed probed run reproduces the identical
        series, index-for-index — wall-clock series excepted."""
        x, y = data

        def fit(trainer, epochs, **kw):
            return trainer.fit(x, y, epochs=epochs, batch_size=10, **kw)

        t_full = build(method, recorder=InMemoryRecorder())
        t_full.attach_probes(manager())
        fit(t_full, 4)

        t_killed = build(method, recorder=InMemoryRecorder())
        t_killed.attach_probes(manager())
        fit(t_killed, 2, checkpoint_every=1, checkpoint_dir=tmp_path)

        t_resumed = build(method, recorder=InMemoryRecorder())
        t_resumed.attach_probes(manager())
        fit(t_resumed, 4, checkpoint_every=1, checkpoint_dir=tmp_path)

        full = t_full.obs.snapshot()["series"]
        resumed = t_resumed.obs.snapshot()["series"]
        assert set(full) == set(resumed)
        for name in full:
            if name == SERIES_EPOCH_TIME:
                continue  # wall-clock: values differ, indices must not
            assert full[name] == resumed[name], name
        assert [i for i, _ in full[SERIES_EPOCH_TIME]] == [
            i for i, _ in resumed[SERIES_EPOCH_TIME]
        ]
        # Histograms ride the checkpoint too: the resumed counts cover
        # the pre-kill epochs, not only the epochs the resumed run trained.
        def counts(trainer):
            hists = trainer.obs.snapshot()["histograms"]
            return {name: h["count"] for name, h in hists.items()}

        assert counts(t_full) and counts(t_resumed) == counts(t_full)
