"""Bounded LRU query cache, invalidated by index epoch.

Hot corpus queries repeat heavily — the QueryAdvisor probes the same
keyword's "similar names" once per candidate attribute, the
DesignAdvisor re-scores the same schema's popularity per proposal — so
a small LRU in front of the search engine removes most retrieval work.

Entries are keyed by the caller (typically ``(kind, normalized term,
options fingerprint)``) and stamped with the index ``epoch`` they were
computed at; a lookup under any other epoch is a miss and evicts the
stale entry, so incremental corpus growth can never serve stale
rankings.

Observability: ``hits`` / ``misses`` / ``evictions`` are kept on the
cache *and* mirrored into the shared :mod:`repro.obs` registry under
``<name>.hits`` etc. (default prefix ``search.cache``), so cache
effectiveness shows up in the unified ``explain()`` report alongside
reformulation and serving counters.  Capacity-pressure evictions and
epoch-invalidation drops are counted separately (``evictions`` vs the
miss that replaces a stale entry).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable

from repro import obs as _obs


class LRUQueryCache:
    """A bounded least-recently-used cache with epoch validation.

    Thread-safe: callers on several threads may share one engine
    cache, and an unguarded get/put pair can ``move_to_end``/``del`` a
    key another thread just evicted.  One
    lock around each operation keeps the recency order and the
    hit/miss/eviction counts exact under fan-out.
    """

    def __init__(
        self,
        capacity: int = 1024,
        obs: "_obs.Observability | None" = None,
        name: str = "search.cache",
    ):  # noqa: D107
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, tuple[int, object]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        metrics = (obs or _obs.default()).metrics
        self._m_hits = metrics.counter(f"{name}.hits")
        self._m_misses = metrics.counter(f"{name}.misses")
        self._m_evictions = metrics.counter(f"{name}.evictions")

    def get(self, key: Hashable, epoch: int):
        """Cached value for ``key`` at ``epoch``, or None on miss.

        An entry computed at a different epoch is treated as a miss and
        dropped (the index has changed under it).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                self._m_misses.inc()
                return None
            if entry[0] != epoch:
                del self._entries[key]
                self.misses += 1
                self._m_misses.inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._m_hits.inc()
            return entry[1]

    def put(self, key: Hashable, epoch: int, value) -> None:
        """Store ``value`` for ``key`` at ``epoch``; evict LRU overflow."""
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = (epoch, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._m_evictions.inc()

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
