"""Tests for the set-associative LRU cache simulator."""

import numpy as np
import pytest

from repro.memsim.cache import CacheHierarchy, CacheLevel, default_hierarchy


class TestCacheLevel:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            CacheLevel(1024, line_size=48)  # not a power of two
        with pytest.raises(ValueError):
            CacheLevel(100, line_size=64, associativity=8)  # too small

    def test_cold_miss_then_hit(self):
        cache = CacheLevel(64 * 16, line_size=64, associativity=2)
        assert cache.access_line(0) is False
        assert cache.access_line(0) is True
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        # One set of 2 ways: n_sets = 1.
        cache = CacheLevel(64 * 2, line_size=64, associativity=2)
        cache.access_line(0)
        cache.access_line(1)
        cache.access_line(0)  # refresh 0: LRU is now 1
        cache.access_line(2)  # evicts 1
        assert cache.access_line(0) is True
        assert cache.access_line(1) is False

    def test_set_isolation(self):
        """Lines mapping to different sets never evict each other."""
        cache = CacheLevel(64 * 4, line_size=64, associativity=2)  # 2 sets
        cache.access_line(0)  # set 0
        cache.access_line(1)  # set 1
        cache.access_line(2)  # set 0
        cache.access_line(3)  # set 1
        # All four fit (2 per set): everything hits now.
        for line in range(4):
            assert cache.access_line(line) is True

    def test_miss_rate(self):
        cache = CacheLevel(64 * 8, line_size=64, associativity=8)
        assert cache.miss_rate() == 0.0
        cache.access_line(0)
        cache.access_line(0)
        assert cache.miss_rate() == pytest.approx(0.5)


class TestHierarchy:
    def _small(self):
        return CacheHierarchy(
            [
                CacheLevel(64 * 4, 64, 2, "L1"),
                CacheLevel(64 * 32, 64, 8, "L2"),
            ]
        )

    def test_requires_levels(self):
        with pytest.raises(ValueError):
            CacheHierarchy([])

    def test_mixed_line_sizes_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy(
                [CacheLevel(64 * 8, 64, 8), CacheLevel(128 * 8, 128, 8)]
            )

    def test_miss_cascades_to_next_level(self):
        h = self._small()
        h.access(0, 8)
        assert h.levels[0].misses == 1
        assert h.levels[1].misses == 1
        assert h.dram_accesses == 1
        h.access(0, 8)
        assert h.levels[0].hits == 1
        assert h.levels[1].accesses == 1  # not probed again

    def test_l2_catches_l1_evictions(self):
        h = self._small()
        # Touch more lines than L1 holds (4) but fewer than L2 (32).
        for line in range(8):
            h.access(line * 64, 8)
        before_dram = h.dram_accesses
        for line in range(8):
            h.access(line * 64, 8)
        assert h.dram_accesses == before_dram  # L2 absorbed everything

    def test_extent_spanning_lines(self):
        h = self._small()
        h.access(0, 64 * 3)  # touches 3 lines
        assert h.levels[0].accesses == 3

    def test_invalid_extent(self):
        with pytest.raises(ValueError):
            self._small().access(0, 0)

    def test_run_trace_and_report(self):
        h = self._small()
        h.run_trace([(0, 8), (64, 8), (0, 8)])
        report = h.report()
        assert report["L1"]["hits"] == 1
        assert report["L1"]["misses"] == 2
        assert report["dram_accesses"] == 2


class TestDefaultHierarchy:
    def test_three_levels_named(self):
        h = default_hierarchy()
        assert [lvl.name for lvl in h.levels] == ["L1", "L2", "L3"]

    def test_capacities_ordered(self):
        h = default_hierarchy()
        sizes = [lvl.n_sets * lvl.associativity for lvl in h.levels]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            default_hierarchy(scale=0.0)

    def test_repeated_small_working_set_hits(self):
        """A working set smaller than L1 must hit ~100% after warm-up."""
        h = default_hierarchy(scale=1.0 / 64.0)
        trace = [(addr, 64) for addr in range(0, 2048, 64)]
        h.run_trace(trace)  # warm up
        cold_misses = h.levels[0].misses
        h.run_trace(trace * 5)
        assert h.levels[0].misses == cold_misses

    def test_column_gather_worse_than_row_stream(self):
        """The locality effect behind the §9.4 findings: touching k scattered
        elements (one per row of a row-major matrix) costs k line fills,
        while a contiguous extent of k elements costs ~k/8."""
        row_bytes = 1024  # one matrix row
        n_rows = 64

        def dram(trace):
            h = default_hierarchy(scale=1.0 / 256.0)
            h.run_trace(trace)
            return h.dram_accesses

        column_walk = [(i * row_bytes, 8) for i in range(n_rows)]
        row_stream = [(0, 8 * n_rows)]
        assert dram(column_walk) > dram(row_stream)
