"""An RDF-style triple store with provenance.

MANGROVE publishes annotations into "a relational database using a
simple graph representation" queried "using the Jena RDF-based querying
system" (Section 2.2 of the paper).  This package is that substrate:
triples carry a *source URL* and a logical timestamp (both used by the
cleaning policies of Section 2.3), rows sit in a :mod:`repro.storage`
engine under four hash indexes, and queries are basic graph patterns with
variables, à la RDQL.
"""

from repro.rdf.triples import Delta, Triple, Var
from repro.rdf.store import TripleStore
from repro.rdf.query import GraphQuery, TriplePattern

__all__ = ["Delta", "GraphQuery", "Triple", "TriplePattern", "TripleStore", "Var"]
