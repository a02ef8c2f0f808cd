"""Tables with primary keys, maintained secondary indexes and pluggable
row storage.

Row *state* lives in a :class:`~repro.storage.engine.StorageEngine`
(ISSUE 8): :class:`~repro.storage.engine.MemoryEngine` is the seed's
dict behavior and the default, :class:`~repro.storage.log.LogEngine`
adds WAL + snapshot durability, and
:class:`~repro.storage.engine.ShardedEngine` hash-partitions rows
across child engines.  The table keeps everything semantic — schema
validation, primary-key enforcement, secondary indexes — so engines
are swappable without observable behavior changes (the randomized
parity suite in ``tests/test_storage.py`` pins this row-for-row).

Rows are identified by a monotonically increasing, never-reused row
id; all mutation goes through :meth:`insert`, :meth:`delete_where` and
:meth:`update_where` so indexes never go stale.  Each public mutation
is one engine :meth:`~repro.storage.engine.StorageEngine.batch` — on a
durable engine that means exactly one WAL record per logical
operation, carrying the mutation as an updategram payload.

A table constructed over an engine that already holds rows (a
``LogEngine`` that just recovered from disk) attaches to that state:
indexes are rebuilt from the engine scan and the primary-key index is
backfilled, so recovery restores secondary-index-visible behavior, not
just rows.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.relational.errors import IntegrityError, SchemaError
from repro.relational.index import HashIndex
from repro.relational.schema import TableSchema
from repro.storage.engine import MemoryEngine, StorageEngine
from repro.storage.records import encode_row, sorted_rows


class Table:
    """A heap of row tuples with optional primary key and indexes."""

    def __init__(self, schema: TableSchema, engine: StorageEngine | None = None):  # noqa: D107
        self.schema = schema
        self.engine = engine if engine is not None else MemoryEngine()
        self._pk_index: HashIndex | None = (
            HashIndex(schema.primary_key) if schema.primary_key else None
        )
        self._hash_indexes: dict[tuple[str, ...], HashIndex] = {}
        if len(self.engine):
            # Recovery attach: the engine came back from disk with rows;
            # rebuild everything index-shaped from the engine scan.
            self.rebuild_indexes()

    # -- index management ----------------------------------------------
    def create_hash_index(self, columns: tuple[str, ...] | list[str]) -> None:
        """Create (and backfill) a hash index on ``columns``."""
        columns = tuple(columns)
        for name in columns:
            self.schema.column_index(name)  # validates
        if columns in self._hash_indexes:
            return
        index = HashIndex(columns)
        positions = [self.schema.column_index(name) for name in columns]
        for row_id, row in self.engine.scan():
            index.insert(tuple(row[p] for p in positions), row_id)
        self._hash_indexes[columns] = index

    def rebuild_indexes(self) -> None:
        """Re-derive every index (primary and hash) from the engine.

        Used when attaching to a recovered engine and safe to call any
        time the engine state is trusted over the index state.
        """
        if self._pk_index is not None:
            self._pk_index.clear()
        for index in self._hash_indexes.values():
            index.clear()
        for row_id, row in self.engine.scan():
            self._index_insert(row, row_id)

    def hash_index_for(self, columns: set[str]) -> HashIndex | None:
        """The widest hash index whose columns are all in ``columns``."""
        best: HashIndex | None = None
        for index_columns, index in self._hash_indexes.items():
            if set(index_columns) <= columns:
                if best is None or len(index_columns) > len(best.columns):
                    best = index
        return best

    # -- mutation --------------------------------------------------------
    def insert(self, values: tuple | list | Mapping[str, object]) -> int:
        """Insert one row; returns its row id.

        Accepts a positional tuple/list or a mapping of column names (with
        missing columns defaulting to ``None``).
        """
        if isinstance(values, Mapping):
            unknown = set(values) - set(self.schema.column_names)
            if unknown:
                raise SchemaError(f"unknown columns in insert: {sorted(unknown)}")
            values = tuple(values.get(name) for name in self.schema.column_names)
        row = self.schema.validate_row(tuple(values))
        key = self.schema.key_of(row)
        if self._pk_index is not None and key is not None:
            if self._pk_index.lookup(key):
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {self.schema.name}"
                )
        with self.engine.batch() as batch:
            row_id = self.engine.append(row)
            self._index_insert(row, row_id)
            if batch.wants_logical:
                batch.annotate(
                    "updategram",
                    {"inserts": {self.schema.name: [encode_row(row)]}, "deletes": {}},
                )
        return row_id

    def _index_insert(self, row: tuple, row_id: int) -> None:
        if self._pk_index is not None:
            key = self.schema.key_of(row)
            if key is not None:
                self._pk_index.insert(key, row_id)
        for columns, index in self._hash_indexes.items():
            positions = [self.schema.column_index(name) for name in columns]
            index.insert(tuple(row[p] for p in positions), row_id)

    def _index_remove(self, row: tuple, row_id: int) -> None:
        if self._pk_index is not None:
            key = self.schema.key_of(row)
            if key is not None:
                self._pk_index.remove(key, row_id)
        for columns, index in self._hash_indexes.items():
            positions = [self.schema.column_index(name) for name in columns]
            index.remove(tuple(row[p] for p in positions), row_id)

    def delete_row(self, row_id: int) -> bool:
        """Delete by row id; returns True if a live row was removed."""
        with self.engine.batch() as batch:
            row = self.engine.delete(row_id)
            if row is None:
                return False
            self._index_remove(row, row_id)
            if batch.wants_logical:
                batch.annotate(
                    "updategram",
                    {"inserts": {}, "deletes": {self.schema.name: [encode_row(row)]}},
                )
        return True

    def delete_where(self, predicate) -> int:
        """Delete rows matching ``predicate(row_dict) -> bool``; returns count."""
        deleted: list[tuple] = []
        with self.engine.batch() as batch:
            for row_id, row in list(self.engine.scan()):
                if predicate(self.row_dict(row)):
                    self.delete_row(row_id)
                    deleted.append(row)
            if deleted and batch.wants_logical:
                batch.annotate(
                    "updategram",
                    {"inserts": {}, "deletes": {self.schema.name: sorted_rows(deleted)}},
                )
        return len(deleted)

    def update_where(self, predicate, changes: Mapping[str, object]) -> int:
        """Update matching rows with ``changes``; returns affected count.

        All or nothing, like :meth:`insert`: every new row is built and
        validated, and its primary key checked against the rows left
        alone and against the other new keys, before the engine sees a
        write.
        """
        positions = {self.schema.column_index(name): value for name, value in changes.items()}
        updates: list[tuple[int, tuple, tuple]] = []
        for row_id, row in self.engine.scan():
            if predicate(self.row_dict(row)):
                new_values = list(row)
                for position, value in positions.items():
                    new_values[position] = value
                updates.append((row_id, row, self.schema.validate_row(tuple(new_values))))
        if self._pk_index is not None:
            updated = {row_id for row_id, _row, _new_row in updates}
            new_keys: set[tuple] = set()
            for _row_id, _row, new_row in updates:
                key = self.schema.key_of(new_row)
                if key in new_keys or self._pk_index.lookup(key) - updated:
                    raise IntegrityError(f"update would duplicate primary key {key!r}")
                new_keys.add(key)
        with self.engine.batch() as batch:
            for row_id, row, new_row in updates:
                self._index_remove(row, row_id)
                self.engine.replace(row_id, new_row)
                self._index_insert(new_row, row_id)
            if updates and batch.wants_logical:
                batch.annotate(
                    "updategram",
                    {
                        "inserts": {self.schema.name: sorted_rows([u[2] for u in updates])},
                        "deletes": {self.schema.name: sorted_rows([u[1] for u in updates])},
                    },
                )
        return len(updates)

    # -- access ----------------------------------------------------------
    def row_dict(self, row: tuple) -> dict[str, object]:
        """Convert a stored tuple into a column-name keyed dict."""
        return dict(zip(self.schema.column_names, row))

    def raw_row(self, row_id: int) -> tuple | None:
        """The stored tuple for ``row_id`` (None for deleted/invalid ids).

        Positional access for hot paths that resolve column positions
        once instead of building a dict per row (see
        :meth:`repro.rdf.store.TripleStore.match`).
        """
        return self.engine.get(row_id)

    def get_row(self, row_id: int) -> dict[str, object] | None:
        """Row dict by id, or None for deleted/invalid ids."""
        row = self.engine.get(row_id)
        if row is not None:
            return self.row_dict(row)
        return None

    def lookup_pk(self, key: tuple) -> dict[str, object] | None:
        """Primary-key point lookup."""
        if self._pk_index is None:
            raise SchemaError(f"table {self.schema.name} has no primary key")
        for row_id in self._pk_index.lookup(tuple(key)):
            return self.get_row(row_id)
        return None

    def raw_scan(self) -> Iterator[tuple]:
        """Yield every live row as its raw tuple, in row-id order."""
        for _row_id, row in self.engine.scan():
            yield row

    def scan(self) -> Iterator[dict[str, object]]:
        """Yield every live row as a dict."""
        for _row_id, row in self.engine.scan():
            yield self.row_dict(row)

    def checkpoint(self) -> None:
        """Ask the engine to snapshot (no-op on volatile engines)."""
        self.engine.checkpoint()

    def close(self) -> None:
        """Release the engine's file handles (no-op on volatile engines)."""
        self.engine.close()

    def __len__(self) -> int:
        return len(self.engine)

    def __repr__(self) -> str:
        return (
            f"<Table {self.schema.name} rows={len(self.engine)} "
            f"engine={self.engine.kind}>"
        )
