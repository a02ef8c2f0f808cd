"""REVERE: the full system of Figure 1.

One object wires the three components together:

* **MANGROVE** — annotate pages, publish into the local repository,
  instant-gratification apps refresh immediately;
* **Piazza** — the repository's entities are exported as stored
  relations of this node's peer, mappings connect it to other nodes,
  queries posed on the local schema reach all mapped peers;
* **Corpus tools** — a shared corpus powers DESIGNADVISOR and
  MATCHINGADVISOR for the schema/mapping design steps.

Each :class:`RevereNode` is one organization (one peer); a
:class:`RevereSystem` is the web of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.design_advisor import DesignAdvisor
from repro.corpus.match.advisor import MatchingAdvisor
from repro.corpus.model import Corpus, CorpusSchema
from repro.mangrove.annotation import AnnotatedDocument
from repro.mangrove.annotator import AnnotationSession
from repro.mangrove.publish import Publisher
from repro.mangrove.schema import LightweightSchema, SchemaRegistry, university_schema
from repro.piazza.peer import PDMS, Peer
from repro.rdf import TripleStore


class RevereNode:
    """One participating organization: store + publisher + peer."""

    def __init__(self, system: "RevereSystem", name: str):  # noqa: D107
        self.system = system
        self.name = name
        self._store: TripleStore | None = None
        self._publisher: Publisher | None = None
        self.peer: Peer = system.pdms.add_peer(name)
        self._exported: dict[str, list[str]] = {}

    # The default repository is in memory and built on first use, so a
    # node that is handed a durable store never builds a throwaway one.
    @property
    def store(self) -> TripleStore:
        """This node's repository."""
        if self._store is None:
            self._store = TripleStore(self.name)
        return self._store

    @store.setter
    def store(self, store: TripleStore) -> None:
        self._store = store

    @property
    def publisher(self) -> Publisher:
        """The publisher into :attr:`store`."""
        if self._publisher is None:
            self._publisher = Publisher(self.store)
        return self._publisher

    @publisher.setter
    def publisher(self, publisher: Publisher) -> None:
        self._publisher = publisher

    # -- MANGROVE side -----------------------------------------------------
    def annotate(self, url: str, html: str, schema: str | LightweightSchema = "university") -> AnnotationSession:
        """Open an annotation session for a page against a schema."""
        if isinstance(schema, str):
            schema = self.system.registry.get(schema)
        document = AnnotatedDocument(url, html, schema)
        return AnnotationSession(document, schema, self.publisher)

    def publish_document(self, document: AnnotatedDocument) -> int:
        """Publish an already annotated page."""
        return self.publisher.publish(document)

    # -- bridge: repository -> peer relations ----------------------------------
    def export_entities(self, type_name: str, attributes: list[str]) -> int:
        """Export annotated entities as a stored relation of this peer.

        Each entity of ``type_name`` becomes a row: its subject id plus
        one value per listed attribute (``None`` when unannotated).
        Re-exporting replaces the relation's contents.  Returns the row
        count.
        """
        relation = type_name
        columns = ["id"] + attributes
        rows: list[tuple] = []
        for subject in sorted(self.store.subjects("rdf:type", type_name)):
            row: list[object] = [subject]
            for attribute in attributes:
                row.append(self.store.value(subject, f"{type_name}.{attribute}"))
            rows.append(tuple(row))
        if relation not in self.peer.stored:
            self.peer.add_relation(relation, columns)
            self.peer.add_stored(relation, columns)
            self.system.pdms.add_storage(self.name, relation, f"{self.name}.{relation}")
        self.peer.data[relation] = set()
        self.peer.insert(relation, rows)
        self._exported[relation] = columns
        return len(rows)

    def schema_as_corpus_schema(self) -> CorpusSchema:
        """This node's exported schema, as corpus material."""
        schema = CorpusSchema(self.name, domain="revere")
        for relation, columns in self._exported.items():
            rows = [tuple(row) for row in self.peer.data.get(relation, ())]
            schema.add_relation(relation, columns, rows)
        return schema

    # -- Piazza side -----------------------------------------------------------
    def query(self, text: str, **options) -> set[tuple]:
        """Pose a query in this node's own schema; answers come from all
        transitively mapped nodes."""
        return self.system.pdms.answer(text, **options)


@dataclass
class RevereSystem:
    """The web of REVERE nodes plus the shared corpus and advisors."""

    registry: SchemaRegistry = field(default_factory=lambda: SchemaRegistry([university_schema()]))
    pdms: PDMS = field(default_factory=PDMS)
    corpus: Corpus = field(default_factory=Corpus)
    nodes: dict[str, RevereNode] = field(default_factory=dict)

    def add_node(self, name: str) -> RevereNode:
        """Register a new participating organization."""
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        node = RevereNode(self, name)
        self.nodes[name] = node
        return node

    def add_mapping(self, name: str, source: str, target: str, exact: bool = False):
        """Author a GLAV mapping between two nodes' peer schemas."""
        return self.pdms.add_mapping(name, source, target, exact=exact)

    # -- corpus tools -----------------------------------------------------------
    def contribute_to_corpus(self, node_name: str) -> None:
        """Add a node's exported schema (and data) to the shared corpus.

        "the set of schemas already in REVERE is an excellent starting
        point for a useful corpus" (Section 4.3.1).
        """
        schema = self.nodes[node_name].schema_as_corpus_schema()
        if schema.name in self.corpus:
            del self.corpus.schemas[schema.name]
        self.corpus.add_schema(schema)

    def design_advisor(self, **options) -> DesignAdvisor:
        """A DESIGNADVISOR over the shared corpus."""
        return DesignAdvisor(self.corpus, **options)

    def matching_advisor(self, **options) -> MatchingAdvisor:
        """A MATCHINGADVISOR over the shared corpus."""
        return MatchingAdvisor(self.corpus, **options)
