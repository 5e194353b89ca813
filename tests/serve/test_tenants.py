"""Multi-tenant head cache: LRU policy, counters, stats."""

import pytest

from repro.obs import InMemoryRecorder
from repro.obs.counters import (
    SERVE_TENANT_EVICTIONS,
    SERVE_TENANT_HITS,
    SERVE_TENANT_MISSES,
    SERVE_TENANT_RESIDENT,
)
from repro.serve.tenants import TenantHeadCache


def _cache(capacity, recorder=None, loads=None):
    loads = loads if loads is not None else []

    def loader(tenant):
        loads.append(tenant)
        return f"head-of-{tenant}"

    return TenantHeadCache(
        capacity, loader, recorder=recorder or InMemoryRecorder()
    ), loads


class TestLRUPolicy:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            _cache(0)

    def test_miss_loads_hit_reuses(self):
        cache, loads = _cache(2)
        assert cache.get("a") == "head-of-a"
        assert cache.get("a") == "head-of-a"
        assert loads == ["a"]
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_evicts_least_recently_used(self):
        cache, _ = _cache(2)
        cache.get("a")
        cache.get("b")
        cache.get("a")       # a is now most recent
        cache.get("c")       # evicts b, the LRU
        assert cache.resident() == ["a", "c"]
        assert "b" not in cache
        assert cache.evictions == 1

    def test_reload_after_eviction_is_a_miss(self):
        cache, loads = _cache(1)
        cache.get("a")
        cache.get("b")
        cache.get("a")
        assert loads == ["a", "b", "a"]
        assert cache.misses == 3 and cache.hits == 0

    def test_never_exceeds_capacity(self):
        cache, _ = _cache(3)
        for i in range(20):
            cache.get(f"t{i % 7}")
            assert len(cache) <= 3

    @pytest.mark.parametrize(
        "capacity, hits, misses, evictions, resident",
        [
            (1, 2, 23, 22, ["c"]),
            (2, 2, 23, 21, ["a", "c"]),
            (3, 5, 20, 17, ["a", "c", "i"]),
            (4, 11, 14, 10, ["a", "b", "c", "i"]),
        ],
    )
    def test_scripted_trace_counts(
        self, capacity, hits, misses, evictions, resident
    ):
        """The counts the memsim-backed cache gave on this trace."""
        cache, _ = _cache(capacity)
        for tenant in "a b c a d b e a a c f b a g d a b c h a b b i a c".split():
            cache.get(tenant)
        assert (cache.hits, cache.misses, cache.evictions) == (
            hits, misses, evictions
        )
        assert cache.resident() == resident

    def test_skewed_traffic_hits(self):
        cache, _ = _cache(2)
        for tenant in ["hot", "hot", "cold1", "hot", "cold2", "hot"]:
            cache.get(tenant)
        assert cache.hits >= 3  # the hot tenant stays resident
        assert "hot" in cache


class TestObservability:
    def test_counters_and_gauge(self):
        recorder = InMemoryRecorder()
        cache, _ = _cache(2, recorder=recorder)
        for tenant in ["a", "b", "a", "c", "a"]:
            cache.get(tenant)
        snapshot = recorder.snapshot()
        assert snapshot["counters"][SERVE_TENANT_HITS] == cache.hits
        assert snapshot["counters"][SERVE_TENANT_MISSES] == cache.misses
        assert snapshot["counters"][SERVE_TENANT_EVICTIONS] == cache.evictions
        assert snapshot["gauges"][SERVE_TENANT_RESIDENT] <= 2

    def test_stats_view(self):
        cache, _ = _cache(2)
        cache.get("a")
        cache.get("a")
        stats = cache.stats()
        assert stats["capacity"] == 2
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_loader_failure_leaves_cache_consistent(self):
        calls = {"n": 0}

        def loader(tenant):
            calls["n"] += 1
            if tenant == "bad":
                raise IOError("checkpoint missing")
            return tenant.upper()

        cache = TenantHeadCache(2, loader)
        cache.get("a")
        with pytest.raises(IOError):
            cache.get("bad")
        # The failed tenant is not resident; good tenants still work.
        assert "bad" not in cache
        assert cache.get("a") == "A"

    def test_failed_load_takes_no_slot(self):
        """A loader that raises inserts nothing and evicts nothing."""

        def loader(tenant):
            if tenant == "bad":
                raise IOError("checkpoint missing")
            return tenant.upper()

        cache = TenantHeadCache(2, loader)
        cache.get("a")
        with pytest.raises(IOError):
            cache.get("bad")
        cache.get("b")
        assert cache.resident() == ["a", "b"]
        assert cache.evictions == 0
        assert cache.get("a") == "A" and cache.hits == 1
