"""The pluggable row-state engines behind :class:`~repro.rdf.store.TripleStore`.

A :class:`StorageEngine` owns exactly the row state: a mapping from a
monotonically increasing, never-reused row id to a live row tuple.
Everything else — input checks, secondary indexes, notification —
stays in the owning store, so swapping engines cannot change
observable semantics.  The
contract every engine is pinned to (``tests/test_storage.py`` runs
randomized mutation streams over all engines and asserts row-for-row
equality):

* :meth:`~StorageEngine.append` stores the row under
  :attr:`~StorageEngine.next_id` and advances it;
* deleted ids are never reused (recovery depends on this: a WAL replay
  reproduces the exact id assignment of the original run);
* :meth:`~StorageEngine.scan` yields live ``(row_id, row)`` pairs in
  ascending row-id order — the insertion order every iteration-order
  contract upstream (cleaning policies, parity oracles, ``match``)
  is built on.

:class:`MemoryEngine` is memory-resident; :class:`~repro.storage.log.LogEngine`
adds the durable WAL + snapshot variant.

The :meth:`~StorageEngine.batch` protocol groups the row ops of one
*logical* store operation (one ``add_all``, one ``remove``, one
``replace_source``) so durable engines emit exactly one log record per
logical operation; in-memory engines return a shared no-op batch whose
``wants_logical`` is False, so the logical-payload encoding costs
nothing on the default path.
"""

from __future__ import annotations

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

    @property
    def next_id(self) -> int:
        """The id the next :meth:`append` will assign."""
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
        """Store ``row`` under an externally assigned id (WAL replay).

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
