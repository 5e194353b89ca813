"""Tests for the ALSH hash-table rebuild scheduler (§9.2 policy)."""

import pytest

from repro.lsh.rebuild import RebuildScheduler


class TestValidation:
    def test_invalid_periods(self):
        with pytest.raises(ValueError):
            RebuildScheduler(early_every=0)
        with pytest.raises(ValueError):
            RebuildScheduler(late_every=-5)

    def test_invalid_warmup(self):
        with pytest.raises(ValueError):
            RebuildScheduler(warmup_samples=-1)

    def test_invalid_record(self):
        with pytest.raises(ValueError):
            RebuildScheduler().record(0)


class TestPaperPolicy:
    def test_early_period_every_100(self):
        sched = RebuildScheduler()  # paper defaults
        fires = [i for i in range(1, 1001) if sched.record(1)]
        assert fires == list(range(100, 1001, 100))

    def test_switches_to_late_period_after_warmup(self):
        sched = RebuildScheduler(early_every=10, late_every=50, warmup_samples=100)
        fires = []
        for i in range(1, 301):
            if sched.record(1):
                fires.append(i)
        early = [f for f in fires if f <= 100]
        late = [f for f in fires if f > 100]
        assert early == list(range(10, 101, 10))
        assert late == [150, 200, 250, 300]

    def test_current_period_reflects_phase(self):
        sched = RebuildScheduler(early_every=10, late_every=50, warmup_samples=20)
        assert sched.current_period() == 10
        sched.record(20)
        assert sched.current_period() == 50


class TestBatchRecording:
    def test_batch_counts_as_many_samples(self):
        sched = RebuildScheduler(early_every=100, warmup_samples=0, late_every=100)
        assert not sched.record(99)
        assert sched.record(1)

    def test_large_batch_triggers_once(self):
        """One record call fires at most one rebuild (caller rebuilds once)."""
        sched = RebuildScheduler(early_every=10, warmup_samples=0, late_every=10)
        assert sched.record(35)
        assert sched.rebuild_count == 1
