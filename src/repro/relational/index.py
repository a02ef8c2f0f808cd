"""Secondary equality indexes over a table's row ids."""

from __future__ import annotations

from collections.abc import Iterable


class HashIndex:
    """Equality index mapping a key tuple to the set of row ids."""

    def __init__(self, columns: tuple[str, ...]):  # noqa: D107
        self.columns = columns
        self._buckets: dict[tuple, set[int]] = {}

    def insert(self, key: tuple, row_id: int) -> None:
        """Register ``row_id`` under ``key``."""
        self._buckets.setdefault(key, set()).add(row_id)

    def remove(self, key: tuple, row_id: int) -> None:
        """Unregister ``row_id``; empty buckets are discarded."""
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.discard(row_id)
        if not bucket:
            del self._buckets[key]

    def lookup(self, key: tuple) -> set[int]:
        """Row ids stored under ``key`` (empty set if none)."""
        return self._buckets.get(key, set())

    def clear(self) -> None:
        """Drop every entry (index rebuild after storage recovery)."""
        self._buckets.clear()

    def keys(self) -> Iterable[tuple]:
        """All distinct keys currently indexed."""
        return self._buckets.keys()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())
