"""Figure 4's template mapping language, compiled to Piazza's GLAV mappings.

A template is XML in the target schema.  A binding ``{$c =
document("Berkeley.xml")/schedule/college/dept}`` (or ``{$s = $c/course}``)
in an element's text makes one instance per element its path reaches; a
value ``$s/title/text()`` is replaced by the text of the element it reaches.

Nothing interprets the template.  :func:`shred` stores a document as
``el(id, parent, tag)`` and ``txt(id, text)``, ids in preorder.  Each
binding compiles to a target relation named after its element (own id,
the enclosing binding's id, one column per value) and a mapping whose
source query is the chain of ``el`` atoms down to the bound element plus
its own value atoms.  ``//`` and ``*`` raise :class:`MappingError`;
``docs/pdms.md`` §9 walks through Figure 4 and says why.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count

from repro import obs as _obs
from repro.piazza.datalog import Atom, ConjunctiveQuery, Var
from repro.piazza.peer import PDMS, InclusionMapping, Peer, peer_relation, stored_relation
from repro.xmlmodel.parser import parse_xml
from repro.xmlmodel.tree import XmlElement, XmlText


class MappingError(ValueError):
    """Malformed template, a construct that cannot compile, or a missing document."""


_BINDING_RE = re.compile(r"\{\s*\$(?P<var>\w+)\s*=\s*(?P<expr>[^}]+)\}", re.DOTALL)
_STEPS = r"(?:/+[\w.\-*]+)*"
_PATH_RE = re.compile(rf'(?:document\(\s*"(?P<doc>[^"]+)"\s*\)|\$(?P<var>\w+))(?P<path>{_STEPS})')
_VALUE_RE = re.compile(rf"(?P<expr>\$\w+{_STEPS})/text\(\)")


def shred(pdms: PDMS, peer: str, document: XmlElement) -> Peer:
    """Store ``document`` on a new ``peer`` as ``el(id, parent, tag)`` and
    ``txt(id, text)``: ids count elements in preorder from 1, the root's
    parent is 0, and ``text`` is an element's own text, stripped."""
    elements, texts, stack = [], [], [(document, 0)]
    while stack:
        node, parent = stack.pop()
        elements.append((len(elements) + 1, parent, node.tag))
        own = "".join(child.value for child in node.children if isinstance(child, XmlText))
        texts.append((len(elements), own.strip()))
        stack += [(child, len(elements)) for child in reversed(node.child_elements())]
    source = pdms.add_peer(peer)
    source.add_stored("el", ["id", "parent", "tag"], elements)
    source.add_stored("txt", ["id", "text"], texts)
    return source


@dataclass
class _Binding:
    """A binding annotation: one target relation and its rows' source query."""

    relation: str
    chain: list  # (document, relation, args): the el atoms down to the bound element
    head: list  # own id, the enclosing binding's id if nested, one var per value
    nested: bool
    values: list = field(default_factory=list)  # the el/txt atoms of the values


class TemplateMapping:
    """A compiled Figure-4 template: :meth:`apply` runs it over documents,
    :meth:`to_mappings` hands its GLAV mappings to any PDMS."""

    def __init__(self, template: XmlElement):  # noqa: D107
        self._bindings: list[_Binding] = []
        self._documents: dict[str, None] = {}
        self._ids = count(1)
        self._root = self._compile(template, {}, None)

    @classmethod
    def parse(cls, source: str) -> "TemplateMapping":
        """Parse a textual template (XML with embedded annotations)."""
        return cls(parse_xml(source))

    def source_documents(self) -> set[str]:
        """Names of all documents referenced by binding annotations."""
        return set(self._documents)

    def to_mappings(self, target: str, sources: dict[str, str]) -> list[InclusionMapping]:
        """One GLAV mapping per binding, from the relations :func:`shred`
        stores on peer ``sources[document]`` into ``target.<element tag>``."""
        if missing := sorted(self._documents.keys() - sources.keys()):
            raise MappingError(f"unknown document {missing[0]!r}")
        mappings = []
        for binding in self._bindings:
            head = Atom("m", tuple(binding.head))
            body = tuple(Atom(stored_relation(sources[document], name), args)
                         for document, name, args in binding.chain + binding.values)
            relation = Atom(peer_relation(target, binding.relation), head.args)
            source, into = ConjunctiveQuery(head, body), ConjunctiveQuery(head, (relation,))
            mappings.append(InclusionMapping(relation.predicate, source, into))
        return mappings

    def apply(self, documents: dict[str, XmlElement]) -> XmlElement:
        """Shred ``documents`` (name -> root) onto a PDMS, answer each target
        relation there, and nest the rows into the template by parent id."""
        sources = {name: f"source{number}" for number, name in enumerate(self._documents)
                   if name in documents}
        mappings = self.to_mappings("target", sources)  # refuses a missing document
        pdms = PDMS(obs=_obs.Observability())
        for name, peer in sources.items():
            shred(pdms, peer, documents[name])
        rows = {}
        for binding, mapping in zip(self._bindings, mappings):
            pdms.add_mapping(mapping.name, mapping.source, mapping.target)
            rows[binding.relation] = grouped = defaultdict(list)
            for row in sorted(pdms.answer(mapping.target)):
                grouped[row[1] if binding.nested else None].append(row)
        instances = _render(self._root, rows, None)
        if len(instances) != 1:
            raise MappingError(f"template root produced {len(instances)} instances, expected 1")
        return instances[0]

    def _compile(self, node: XmlElement, scope: dict, owner: _Binding | None) -> tuple:
        """One template element as ``(tag, attributes, binding, children)``;
        a child is literal text, a column of the enclosing binding's rows,
        or a compiled element."""
        annotations, parts = [], []
        for child in node.children:
            if isinstance(child, XmlText):
                annotations += _BINDING_RE.findall(child.value)
                child = _BINDING_RE.sub("", child.value).strip()
            if child:
                parts.append(child)
        if len(annotations) > 1:
            raise MappingError(f"element <{node.tag}> has multiple binding annotations")
        if annotations and any(binding.relation == node.tag for binding in self._bindings):
            raise MappingError(f"two bindings on <{node.tag}>, which names one target relation")
        binding = None
        for var, expr in annotations:
            chain = list(owner.chain) if owner else []
            document, bound = self._path(expr.strip(), scope, chain)
            binding = _Binding(node.tag, chain, [bound, *owner.head[:1]] if owner else [bound], bool(owner))
            self._bindings.append(binding)
            scope, owner = {**scope, var: (document, bound)}, binding
        children = []
        for part in parts:
            if isinstance(part, XmlElement):
                children.append(self._compile(part, scope, owner))
            elif value := _VALUE_RE.fullmatch(part):
                atoms, text = [], Var(f"v{next(self._ids)}")
                document, reached = self._path(value["expr"], scope, atoms)
                owner.values += atoms + [(document, "txt", (reached, text))]
                owner.head.append(text)
                children.append(len(owner.head) - 1)
            else:
                children.append(part)
        return node.tag, node.attributes, binding, children

    def _path(self, expr: str, scope: dict, atoms: list) -> tuple:
        """Compile ``document("d")/a/b`` or ``$v/a/b`` into ``el`` atoms on
        ``atoms``; returns the document and the variable of the element reached."""
        match = _PATH_RE.fullmatch(expr)
        if match is None:
            raise MappingError(f"cannot parse path expression {expr!r}")
        if match["var"] and match["var"] not in scope:
            raise MappingError(f"variable ${match['var']} is not bound")
        for construct, reason in (("//", "needs a recursive rule"), ("*", "has no caller")):
            if construct in match["path"]:
                raise MappingError(f"{expr!r}: {construct!r} {reason}, so it does not compile")
        steps = match["path"].split("/")[1:]
        document, node = scope[match["var"]] if match["var"] else (match["doc"], 0)
        self._documents.setdefault(document)
        if node == 0 and not steps:  # document("d") alone binds the root, whatever its tag
            steps = [Var(f"t{next(self._ids)}")]
        for step in steps:
            atoms.append((document, "el", (child := Var(f"n{next(self._ids)}"), node, step)))
            node = child
        return document, node


def _render(element: tuple, rows: dict, row: tuple | None) -> list[XmlElement]:
    """Instances of one compiled element inside the enclosing binding's ``row``."""
    tag, attributes, binding, children = element
    bound = [row] if binding is None else rows[binding.relation].get(row[0] if row else None, [])
    instances = []
    for current in bound:
        instance = XmlElement(tag, attributes)
        for child in children:
            if isinstance(child, tuple):
                for grandchild in _render(child, rows, current):
                    instance.append(grandchild)
            elif isinstance(child, str):
                instance.append(child)
            elif current[child]:  # an empty value renders no text node
                instance.append(current[child])
        instances.append(instance)
    return instances
