"""XML data model: trees, a DTD subset and Figure 4's template mappings.

Piazza "assumes an XML data model, since this is general enough to
encompass relational, hierarchical, or semi-structured data" (Section
3.1).  Figure 3 gives peer schemas as DTD-style declarations and Figure
4 gives a template mapping language with brace-delimited query
annotations; this package implements both.  Templates compile to the
PDMS's GLAV mappings over documents :func:`shred` into relations, so
:mod:`repro.piazza` answers them (:mod:`repro.xmlmodel.mapping`).
"""

from repro.xmlmodel.tree import XmlElement, XmlText, element, text
from repro.xmlmodel.parser import parse_xml, XmlParseError
from repro.xmlmodel.dtd import Dtd, ElementDecl, DtdError, parse_dtd
from repro.xmlmodel.mapping import TemplateMapping, MappingError, shred

__all__ = [
    "Dtd",
    "DtdError",
    "ElementDecl",
    "MappingError",
    "TemplateMapping",
    "XmlElement",
    "XmlParseError",
    "XmlText",
    "element",
    "parse_dtd",
    "parse_xml",
    "shred",
    "text",
]
