"""The corpus of structures: schemas, data instances, known mappings.

Section 4.1 lists the corpus contents: schema information, queries over
the schemas, known mappings between schemas in the corpus, actual data
and metadata.  "It is important to emphasize that a corpus is not
expected to be a coherent universal database ... It is just a
collection of disparate structures."
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Element:
    """One addressable schema element: a relation or an attribute."""

    schema: str
    path: str  # "relation" or "relation.attribute"
    kind: str  # "relation" | "attribute"

    @property
    def relation(self) -> str:
        """The relation this element belongs to (itself for relations)."""
        return self.path.split(".", 1)[0]


@dataclass
class CorpusSchema:
    """A schema in the corpus: relations, attributes, optional data.

    ``data`` maps a relation name to a list of row tuples aligned with
    its attribute list.  ``domain`` is a free-form label ("university",
    "people", ...) used only for reporting.
    """

    name: str
    relations: dict[str, list[str]] = field(default_factory=dict)
    data: dict[str, list[tuple]] = field(default_factory=dict)
    domain: str = ""

    def add_relation(self, relation: str, attributes: list[str], rows: Iterable[tuple] = ()) -> None:
        """Declare a relation, optionally with instance rows."""
        self.relations[relation] = list(attributes)
        rows = [tuple(row) for row in rows]
        if rows:
            self.data.setdefault(relation, []).extend(rows)

    def elements(self) -> list[Element]:
        """All elements: every relation and every attribute."""
        found: list[Element] = []
        for relation, attributes in self.relations.items():
            found.append(Element(self.name, relation, "relation"))
            for attribute in attributes:
                found.append(Element(self.name, f"{relation}.{attribute}", "attribute"))
        return found

    def attribute_paths(self) -> list[str]:
        """Dotted paths of every attribute."""
        return [e.path for e in self.elements() if e.kind == "attribute"]

    def column_values(self, path: str) -> list[object]:
        """Instance values of the attribute at ``path`` (may be empty)."""
        relation, _, attribute = path.partition(".")
        attributes = self.relations.get(relation)
        if attributes is None or attribute not in attributes:
            return []
        index = attributes.index(attribute)
        return [row[index] for row in self.data.get(relation, []) if len(row) > index]

    def neighbors(self, path: str) -> list[str]:
        """Sibling attribute names of the attribute at ``path``."""
        relation, _, attribute = path.partition(".")
        attributes = self.relations.get(relation, [])
        return [a for a in attributes if a != attribute]

    def size(self) -> int:
        """Total element count (relations + attributes)."""
        return len(self.relations) + sum(len(a) for a in self.relations.values())

    def row_count(self) -> int:
        """Total instance rows across relations."""
        return sum(len(rows) for rows in self.data.values())


@dataclass(frozen=True)
class MappingRecord:
    """A *known* mapping stored in the corpus.

    ``correspondences`` pairs element paths of ``source_schema`` with
    element paths of ``target_schema``.
    """

    source_schema: str
    target_schema: str
    correspondences: tuple = ()

    def forward(self) -> dict[str, str]:
        """source path -> target path."""
        return {source: target for source, target in self.correspondences}

    def backward(self) -> dict[str, str]:
        """target path -> source path."""
        return {target: source for source, target in self.correspondences}


class Corpus:
    """The collection of disparate structures plus known mappings."""

    def __init__(self) -> None:  # noqa: D107
        self.schemas: dict[str, CorpusSchema] = {}
        self.mappings: list[MappingRecord] = []

    def add_schema(self, schema: CorpusSchema) -> CorpusSchema:
        """Register a schema (name must be fresh)."""
        if schema.name in self.schemas:
            raise ValueError(f"schema {schema.name!r} already in corpus")
        self.schemas[schema.name] = schema
        return schema

    def add_mapping(self, record: MappingRecord) -> None:
        """Register a known mapping between two corpus schemas."""
        for name in (record.source_schema, record.target_schema):
            if name not in self.schemas:
                raise ValueError(f"mapping references unknown schema {name!r}")
        self.mappings.append(record)

    def get(self, name: str) -> CorpusSchema:
        """Schema by name."""
        return self.schemas[name]

    def mappings_between(self, schema_a: str, schema_b: str) -> list[MappingRecord]:
        """Known mappings connecting two schemas, either direction."""
        return [
            record
            for record in self.mappings
            if {record.source_schema, record.target_schema} == {schema_a, schema_b}
        ]

    def mappings_from(self, schema: str) -> list[MappingRecord]:
        """Known mappings touching ``schema``."""
        return [
            record
            for record in self.mappings
            if schema in (record.source_schema, record.target_schema)
        ]

    def __len__(self) -> int:
        return len(self.schemas)

    def __contains__(self, name: str) -> bool:
        return name in self.schemas
