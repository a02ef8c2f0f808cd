"""Database catalog: named tables over pluggable storage engines."""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.relational.errors import SchemaError
from repro.relational.schema import Column, ColumnType, TableSchema
from repro.relational.table import Table


class Database:
    """A named collection of tables.

    ``engine_factory(table_name, schema) -> StorageEngine`` makes every
    table created here delegate its row state to a custom
    :class:`~repro.storage.engine.StorageEngine` (durable
    :class:`~repro.storage.log.LogEngine`, hash-partitioned
    :class:`~repro.storage.engine.ShardedEngine`, ...); without one,
    tables default to the seed-identical in-memory engine.  A
    per-table ``engine=`` on :meth:`create_table` overrides the
    factory.
    """

    def __init__(self, name: str = "db", engine_factory=None):  # noqa: D107
        self.name = name
        self.engine_factory = engine_factory
        self._tables: dict[str, Table] = {}

    # -- DDL --------------------------------------------------------------
    def create_table(
        self,
        name: str,
        columns: list[Column | tuple[str, ColumnType] | str],
        primary_key: tuple[str, ...] | list[str] = (),
        engine=None,
    ) -> Table:
        """Create a table; columns may be ``Column``, ``(name, type)`` or name."""
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        normalized: list[Column] = []
        for column in columns:
            if isinstance(column, Column):
                normalized.append(column)
            elif isinstance(column, tuple):
                normalized.append(Column(column[0], column[1]))
            else:
                normalized.append(Column(column))
        schema = TableSchema(name, normalized, tuple(primary_key))
        if engine is None and self.engine_factory is not None:
            engine = self.engine_factory(name, schema)
        table = Table(schema, engine=engine)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"no table {name!r}") from None

    # -- DML --------------------------------------------------------------
    def insert(self, table: str, values: tuple | list | Mapping[str, object]) -> int:
        """Insert one row into ``table``."""
        return self.table(table).insert(values)

    def insert_many(self, table: str, rows: Iterable) -> int:
        """Insert many rows; returns the number inserted."""
        target = self.table(table)
        count = 0
        for values in rows:
            target.insert(values)
            count += 1
        return count

    # -- durability -------------------------------------------------------
    def checkpoint(self) -> None:
        """Snapshot every table's engine (no-op for volatile engines)."""
        for table in self._tables.values():
            table.checkpoint()

    def close(self) -> None:
        """Release every table engine's file handles."""
        for table in self._tables.values():
            table.close()
