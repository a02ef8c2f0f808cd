"""The pluggable row-state engines behind :class:`~repro.rdf.store.TripleStore`.

A :class:`StorageEngine` owns exactly the row state: a mapping from a
monotonically increasing, never-reused row id to a live row tuple.
Everything else — input checks, secondary indexes, notification —
stays in the owning store, so swapping engines cannot change
observable semantics.  The
contract every engine is pinned to (``tests/test_storage.py`` runs
randomized mutation streams over all engines and asserts row-for-row
equality):

* :meth:`~StorageEngine.append` assigns the next id and stores the row;
* deleted ids are never reused (recovery depends on this: a WAL replay
  reproduces the exact id assignment of the original run);
* :meth:`~StorageEngine.scan` yields live ``(row_id, row)`` pairs in
  ascending row-id order — the insertion order every iteration-order
  contract upstream (cleaning policies, parity oracles, ``match``)
  is built on.

Engines here are memory-resident; :class:`~repro.storage.log.LogEngine`
adds the durable WAL + snapshot variant.  :class:`ShardedEngine`
hash-partitions rows across N child engines (any engine, including
``LogEngine`` for sharded durability) with per-shard scan fan-in.

The :meth:`~StorageEngine.batch` protocol groups the row ops of one
*logical* store operation (one ``add_all``, one ``remove``, one
``replace_source``) so durable engines emit exactly one log record per
logical operation; in-memory engines return a shared no-op batch whose
``wants_logical`` is False, so the logical-payload encoding costs
nothing on the default path.
"""

from __future__ import annotations

import heapq
import zlib
from collections.abc import Iterator


class _NullBatch:
    """No-op batch for in-memory engines (shared instance)."""

    wants_logical = False

    def __enter__(self) -> "_NullBatch":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def annotate(self, kind: str, payload: dict) -> None:
        """Ignore the logical payload (nothing is logged)."""


NULL_BATCH = _NullBatch()


class _FanoutBatch:
    """Batch spanning a :class:`ShardedEngine`'s children."""

    def __init__(self, batches: list):  # noqa: D107
        self._batches = batches
        self.wants_logical = any(batch.wants_logical for batch in batches)

    def __enter__(self) -> "_FanoutBatch":
        for batch in self._batches:
            batch.__enter__()
        return self

    def __exit__(self, *exc_info) -> bool:
        for batch in reversed(self._batches):
            batch.__exit__(*exc_info)
        return False

    def annotate(self, kind: str, payload: dict) -> None:
        """Forward the logical payload to every child batch."""
        for batch in self._batches:
            batch.annotate(kind, payload)


def stable_row_hash(row: tuple) -> int:
    """A process-independent hash of a row tuple.

    ``hash(str)`` is salted per interpreter (``PYTHONHASHSEED``), so
    shard routing uses CRC32 of the row's ``repr`` instead — the same
    row lands on the same shard across restarts, which sharded
    recovery requires.
    """
    return zlib.crc32(repr(row).encode("utf-8"))


class StorageEngine:
    """Interface + default no-op durability hooks (see module docstring)."""

    kind = "abstract"

    def append(self, row: tuple) -> int:
        """Store ``row`` under the next row id; returns the id."""
        raise NotImplementedError

    def get(self, row_id: int) -> tuple | None:
        """The live row under ``row_id`` (None for deleted/unknown ids)."""
        raise NotImplementedError

    def delete(self, row_id: int) -> tuple | None:
        """Remove and return the row under ``row_id`` (None if not live)."""
        raise NotImplementedError

    def replace(self, row_id: int, row: tuple) -> None:
        """Overwrite the live row under ``row_id`` in place."""
        raise NotImplementedError

    def scan(self) -> Iterator[tuple[int, tuple]]:
        """Yield live ``(row_id, row)`` in ascending row-id order."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    # -- durability hooks (no-ops outside LogEngine) ----------------------
    def batch(self):
        """Context manager grouping one logical operation's row ops."""
        return NULL_BATCH

    def checkpoint(self) -> None:
        """Write a snapshot (no-op for volatile engines)."""

    def close(self) -> None:
        """Release any file handles (no-op for volatile engines)."""

    def describe(self) -> dict:
        """Engine kind + state summary (metrics/debug)."""
        return {"kind": self.kind, "rows": len(self)}


class MemoryEngine(StorageEngine):
    """The seed behavior: rows live in one process-local dict.

    The dict maps row id -> row; ids are assigned monotonically, so
    dict insertion order *is* row-id order and :meth:`scan` is a plain
    ``items()`` walk — byte-for-byte the iteration the seed's
    list-with-holes produced.
    """

    kind = "memory"

    def __init__(self):  # noqa: D107
        self._rows: dict[int, tuple] = {}
        self._next_id = 0

    def append(self, row: tuple) -> int:  # noqa: D102
        row_id = self._next_id
        self._next_id += 1
        self._rows[row_id] = row
        return row_id

    def insert_at(self, row_id: int, row: tuple) -> None:
        """Store ``row`` under an externally assigned id (replay/sharding).

        Callers must never reuse a dead id; the next :meth:`append` id
        advances past every id ever seen.
        """
        self._rows[row_id] = row
        if row_id >= self._next_id:
            self._next_id = row_id + 1

    def reserve(self, next_id: int) -> None:
        """Advance the id counter (replay of deletes past the live max)."""
        if next_id > self._next_id:
            self._next_id = next_id

    def get(self, row_id: int) -> tuple | None:  # noqa: D102
        return self._rows.get(row_id)

    def delete(self, row_id: int) -> tuple | None:  # noqa: D102
        return self._rows.pop(row_id, None)

    def replace(self, row_id: int, row: tuple) -> None:  # noqa: D102
        if row_id not in self._rows:
            raise KeyError(f"no live row {row_id}")
        self._rows[row_id] = row

    def scan(self) -> Iterator[tuple[int, tuple]]:  # noqa: D102
        yield from self._rows.items()

    def rows_by_id(self) -> dict[int, tuple]:
        """The live state as a dict (snapshot encoding reads this)."""
        return self._rows

    @property
    def next_id(self) -> int:
        """The id the next :meth:`append` will assign."""
        return self._next_id

    def __len__(self) -> int:
        return len(self._rows)


class ShardedEngine(StorageEngine):
    """Hash-partitioned rows across N child engines.

    Rows route by :func:`stable_row_hash` of the row tuple, so one
    peer's relation splits across shards content-wise (restart-stable).
    The parent assigns globally monotone row ids and keeps the
    id -> shard map; :meth:`scan` is a k-way merge of the per-shard
    scans back into global row-id order, so upstream iteration-order
    contracts hold unchanged.  ``child_factory(i)`` may build any
    engine — ``MemoryEngine`` (default) or a per-shard
    :class:`~repro.storage.log.LogEngine` for sharded durability.

    Per-shard row counts are exported as ``storage.shard.rows.<i>``
    gauges on the shared metrics registry — or
    ``storage.shard.rows.<name>.<i>`` when ``name=`` is given.  Pass a
    distinct name per engine (e.g. the table name) whenever more than
    one sharded engine shares a registry, or their gauges overwrite
    each other.
    """

    kind = "sharded"

    def __init__(
        self, shards: int = 4, child_factory=None, obs=None, name: str | None = None
    ):  # noqa: D107
        if shards < 1:
            raise ValueError("shards must be >= 1")
        from repro import obs as _obs

        self.obs = obs or _obs.default()
        self.name = name
        self._children = [
            child_factory(i) if child_factory is not None else MemoryEngine()
            for i in range(shards)
        ]
        self._shard_of: dict[int, int] = {}
        self._next_id = 0
        prefix = "storage.shard.rows" if name is None else f"storage.shard.rows.{name}"
        self._gauges = [
            self.obs.metrics.gauge(f"{prefix}.{i}") for i in range(shards)
        ]
        self._m_dedup = self.obs.metrics.counter("storage.shard.recovered_duplicates")
        # Children recovered from their own logs: rebuild the routing
        # map and id counter from what they already hold.  A crash in
        # the middle of a cross-shard replace (see :meth:`replace`) can
        # leave the same row id live in two children; keep one copy
        # deterministically (the highest-index shard) and durably
        # delete the stale one so scans never yield a row id twice.
        stale: list[tuple[int, int]] = []
        for shard, child in enumerate(self._children):
            for row_id, _row in child.scan():
                prior = self._shard_of.get(row_id)
                if prior is not None:
                    stale.append((prior, row_id))
                self._shard_of[row_id] = shard
                if row_id >= self._next_id:
                    self._next_id = row_id + 1
            if hasattr(child, "next_id"):
                self._next_id = max(self._next_id, child.next_id)
        for prior_shard, row_id in stale:
            self._children[prior_shard].delete(row_id)
            self._m_dedup.inc()
        self._update_gauges()

    @property
    def shards(self) -> int:
        """Number of child engines."""
        return len(self._children)

    def shard_for(self, row: tuple) -> int:
        """The shard index ``row`` routes to."""
        return stable_row_hash(row) % len(self._children)

    def _update_gauges(self) -> None:
        for gauge, child in zip(self._gauges, self._children):
            gauge.set(len(child))

    def append(self, row: tuple) -> int:  # noqa: D102
        row_id = self._next_id
        self._next_id += 1
        shard = self.shard_for(row)
        self._children[shard].insert_at(row_id, row)
        self._shard_of[row_id] = shard
        self._gauges[shard].set(len(self._children[shard]))
        return row_id

    def insert_at(self, row_id: int, row: tuple) -> None:  # noqa: D102
        shard = self.shard_for(row)
        self._children[shard].insert_at(row_id, row)
        self._shard_of[row_id] = shard
        if row_id >= self._next_id:
            self._next_id = row_id + 1
        self._gauges[shard].set(len(self._children[shard]))

    def get(self, row_id: int) -> tuple | None:  # noqa: D102
        shard = self._shard_of.get(row_id)
        if shard is None:
            return None
        return self._children[shard].get(row_id)

    def delete(self, row_id: int) -> tuple | None:  # noqa: D102
        shard = self._shard_of.pop(row_id, None)
        if shard is None:
            return None
        row = self._children[shard].delete(row_id)
        self._gauges[shard].set(len(self._children[shard]))
        return row

    def replace(self, row_id: int, row: tuple) -> None:
        """Overwrite the live row, re-routing it when its hash moved.

        A cross-shard replace over durable children is NOT crash-atomic:
        the delete on the old shard and the insert on the new one commit
        as separate records in separate per-shard logs, so a crash
        between the two commits either loses the row or leaves it live
        in both shards.  Recovery (``__init__``) repairs the duplicate
        case by keeping one copy and durably deleting the stale one
        (counted on ``storage.shard.recovered_duplicates``); the lost
        case is unrecoverable from the shard logs alone.
        """
        old_shard = self._shard_of.get(row_id)
        if old_shard is None:
            raise KeyError(f"no live row {row_id}")
        new_shard = self.shard_for(row)
        if new_shard == old_shard:
            self._children[old_shard].replace(row_id, row)
            return
        self._children[old_shard].delete(row_id)
        self._children[new_shard].insert_at(row_id, row)
        self._shard_of[row_id] = new_shard
        self._gauges[old_shard].set(len(self._children[old_shard]))
        self._gauges[new_shard].set(len(self._children[new_shard]))

    def batch(self):
        """One logical operation spans shards: open a batch on every child.

        Each *touched* durable child commits its own record for the
        operation (per-shard logs recover independently); untouched
        children commit nothing.
        """
        return _FanoutBatch([child.batch() for child in self._children])

    def scan(self) -> Iterator[tuple[int, tuple]]:  # noqa: D102
        # Re-routed replacements can land mid-shard out of insertion
        # order, so each shard is sorted before the k-way merge back
        # into global row-id order.
        yield from heapq.merge(*(sorted(child.scan()) for child in self._children))

    def scan_shard(self, shard: int) -> Iterator[tuple[int, tuple]]:
        """One shard's live rows in ascending row-id order (fan-out unit)."""
        yield from sorted(self._children[shard].scan())

    def shard_sizes(self) -> list[int]:
        """Live row count per shard."""
        return [len(child) for child in self._children]

    @property
    def next_id(self) -> int:
        """The id the next :meth:`append` will assign."""
        return self._next_id

    def __len__(self) -> int:
        return len(self._shard_of)

    def checkpoint(self) -> None:
        """Fan the snapshot request out to every child engine."""
        for child in self._children:
            child.checkpoint()

    def close(self) -> None:
        """Close every child engine."""
        for child in self._children:
            child.close()

    def describe(self) -> dict:  # noqa: D102
        return {
            "kind": self.kind,
            "rows": len(self),
            "shards": self.shard_sizes(),
            "children": [child.kind for child in self._children],
        }
