"""REVERE: a reproduction of "Crossing the Structure Chasm" (CIDR 2003).

The package implements the three components of the REVERE system:

* :mod:`repro.mangrove` -- the MANGROVE data-structuring environment
  (in-place HTML annotation, publish pipeline, instant-gratification
  applications, deferred integrity constraints).
* :mod:`repro.piazza` -- the Piazza peer data management system
  (GLAV schema mappings, query reformulation over the transitive closure
  of mappings, distributed execution, updategrams).
* :mod:`repro.corpus` -- statistics over corpora of structures and the
  two tools built on them: DESIGNADVISOR and MATCHINGADVISOR.

Substrates built from scratch for the above:

* :mod:`repro.text` -- tokenization, stemming, string similarity, TF/IDF.
* :mod:`repro.relational` -- typed tables with keys and hash indexes (storage
  for the annotation repository, as in the paper's Jena-over-RDBMS setup).
* :mod:`repro.rdf` -- a triple store with provenance and graph-pattern
  queries.
* :mod:`repro.xmlmodel` -- XML trees, DTD-subset schemas (Figure 3), path
  expressions and the template mapping language of Figure 4.

:mod:`repro.core` exposes :class:`~repro.core.revere.RevereSystem`, a
facade wiring the components together as in Figure 1 of the paper.
"""

from repro.core.revere import RevereNode, RevereSystem

__version__ = "1.0.0"

__all__ = ["RevereNode", "RevereSystem", "__version__"]
