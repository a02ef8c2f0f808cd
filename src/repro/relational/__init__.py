"""The relational substrate under the annotation store.

The paper stores MANGROVE annotations "in a relational database using a
simple graph representation" (Section 2.2).  Instead of depending on an
external RDBMS, this package implements what that needs: typed tables
with primary keys and hash indexes, a catalog, and row state delegated
to a pluggable :mod:`repro.storage` engine.  :class:`~repro.rdf.store.TripleStore`
is its one caller.
"""

from repro.relational.errors import IntegrityError, RelationalError, SchemaError
from repro.relational.schema import Column, ColumnType, TableSchema
from repro.relational.table import Table
from repro.relational.database import Database

__all__ = [
    "Column",
    "ColumnType",
    "Database",
    "IntegrityError",
    "RelationalError",
    "SchemaError",
    "Table",
    "TableSchema",
]
