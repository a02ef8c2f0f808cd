"""Table schemas and column types."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.relational.errors import IntegrityError, SchemaError


class ColumnType(enum.Enum):
    """Supported column types; ``ANY`` disables type checking."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"
    ANY = "any"

    def check(self, value: object) -> bool:
        """True if ``value`` is acceptable for this type (``None`` always is)."""
        if value is None or self is ColumnType.ANY:
            return True
        if self is ColumnType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is ColumnType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is ColumnType.TEXT:
            return isinstance(value, str)
        if self is ColumnType.BOOL:
            return isinstance(value, bool)
        return False  # pragma: no cover - exhaustive enum

    def coerce(self, value: object) -> object:
        """Coerce ``value`` where lossless (int -> float), else raise."""
        if value is None or self.check(value):
            if self is ColumnType.FLOAT and isinstance(value, int):
                return float(value)
            return value
        raise IntegrityError(f"value {value!r} is not a valid {self.value}")


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: ColumnType = ColumnType.ANY
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"invalid column name: {self.name!r}")


@dataclass
class TableSchema:
    """Ordered set of columns plus an optional primary key.

    >>> schema = TableSchema("person", [Column("id", ColumnType.INT),
    ...                                 Column("name", ColumnType.TEXT)],
    ...                      primary_key=("id",))
    >>> schema.column_index("name")
    1
    """

    name: str
    columns: list[Column] = field(default_factory=list)
    primary_key: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        seen: set[str] = set()
        for column in self.columns:
            if column.name in seen:
                raise SchemaError(f"duplicate column {column.name!r} in {self.name}")
            seen.add(column.name)
        for key_column in self.primary_key:
            if key_column not in seen:
                raise SchemaError(
                    f"primary key column {key_column!r} not in table {self.name}"
                )

    @property
    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return [column.name for column in self.columns]

    def column_index(self, name: str) -> int:
        """Position of ``name``; raises :class:`SchemaError` if absent."""
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise SchemaError(f"no column {name!r} in table {self.name}")

    def validate_row(self, values: tuple) -> tuple:
        """Type-check and coerce one row tuple; returns the coerced tuple."""
        if len(values) != len(self.columns):
            raise IntegrityError(
                f"table {self.name} expects {len(self.columns)} values, "
                f"got {len(values)}"
            )
        coerced = []
        for column, value in zip(self.columns, values):
            if value is None and not column.nullable:
                raise IntegrityError(
                    f"column {self.name}.{column.name} is not nullable"
                )
            coerced.append(column.type.coerce(value))
        return tuple(coerced)

    def key_of(self, values: tuple) -> tuple | None:
        """Primary-key projection of a row, or ``None`` if keyless."""
        if not self.primary_key:
            return None
        return tuple(values[self.column_index(name)] for name in self.primary_key)
