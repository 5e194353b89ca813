"""Multi-tenant head cache: thousands of per-user heads, LRU-evicted.

The personalisation scenario (§2 of the paper, ``examples/
personalization.py``) fine-tunes a small classifier head per user on
top of one shared trunk.  Serving that means holding *some* heads in
memory — all of them would dwarf the trunk — so the cache keeps the
``capacity`` most recently used ones, in an insertion-ordered dict: a
hit moves its tenant to the end, a head is inserted only once its
loader returns, and past capacity the oldest is evicted.
Hit/miss/eviction counts land in the ``serve.tenant.*`` counters.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..obs import NULL_RECORDER, Recorder
from ..obs.counters import (
    SERVE_TENANT_EVICTIONS,
    SERVE_TENANT_HITS,
    SERVE_TENANT_MISSES,
    SERVE_TENANT_RESIDENT,
)

__all__ = ["TenantHeadCache"]


class TenantHeadCache:
    """LRU cache of per-tenant heads.

    Parameters
    ----------
    capacity:
        Maximum heads resident at once.
    loader:
        ``(tenant_id) -> head`` called on every miss — typically loads a
        per-user checkpoint through the model registry.  A loader that
        raises leaves the cache as it was.
    recorder:
        Observability sink for the ``serve.tenant.*`` counters.
    """

    def __init__(
        self,
        capacity: int,
        loader: Callable[[str], object],
        recorder: Recorder = NULL_RECORDER,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.capacity = int(capacity)
        self.loader = loader
        self.obs = recorder
        self._heads: Dict[str, object] = {}  # least recently used first
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, tenant: str) -> object:
        """The tenant's head, loading (and possibly evicting) on miss."""
        tenant = str(tenant)
        if tenant in self._heads:
            self.hits += 1
            self.obs.add(SERVE_TENANT_HITS)
            head = self._heads.pop(tenant)
            self._heads[tenant] = head  # now the most recently used
            return head
        self.misses += 1
        self.obs.add(SERVE_TENANT_MISSES)
        head = self.loader(tenant)
        self._heads[tenant] = head
        if len(self._heads) > self.capacity:
            del self._heads[next(iter(self._heads))]
            self.evictions += 1
            self.obs.add(SERVE_TENANT_EVICTIONS)
        self.obs.gauge(SERVE_TENANT_RESIDENT, len(self._heads))
        return head

    # ------------------------------------------------------------------
    def resident(self) -> List[str]:
        """Tenants whose heads are currently in memory (sorted)."""
        return sorted(self._heads)

    def __contains__(self, tenant: str) -> bool:
        return str(tenant) in self._heads

    def __len__(self) -> int:
        return len(self._heads)

    def stats(self) -> dict:
        """Cache statistics: occupancy, hits, misses, evictions, hit rate."""
        total = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "resident": len(self._heads),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }
