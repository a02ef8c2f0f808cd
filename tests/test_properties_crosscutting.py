"""Cross-cutting property-based tests over the substrates."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.piazza.datalog import is_contained_in, minimize_union
from repro.piazza.parse import parse_query
from repro.rdf import Triple, TripleStore
from repro.xmlmodel import XmlElement, XmlText, parse_xml

# -- XML round-trip ------------------------------------------------------------

tag_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
text_values = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&'\"", min_size=1, max_size=20
)
attr_values = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&'", min_size=0, max_size=12
)


@st.composite
def xml_trees(draw, depth=3):
    tag = draw(tag_names)
    attributes = draw(
        st.dictionaries(tag_names, attr_values, max_size=2)
    )
    node = XmlElement(tag, attributes)
    if depth > 0:
        children = draw(st.integers(0, 3))
        last_was_text = False
        for _ in range(children):
            # Adjacent text nodes are unrepresentable in serialized XML
            # (every parser merges them), so never generate two in a row
            # — the round-trip property only holds for normalized trees.
            if not last_was_text and draw(st.booleans()):
                node.append(XmlText(draw(text_values)))
                last_was_text = True
            else:
                node.append(draw(xml_trees(depth=depth - 1)))
                last_was_text = False
    return node


class TestXmlRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(xml_trees())
    def test_serialize_parse_identity(self, tree):
        assert parse_xml(tree.serialize()) == tree

    @settings(max_examples=40, deadline=None)
    @given(xml_trees())
    def test_pretty_serialization_same_structure(self, tree):
        # Pretty printing may normalize whitespace inside text nodes, so
        # compare tags and attribute structure, not text.
        pretty = parse_xml(tree.serialize(indent=2))
        def shape(node):
            return (
                node.tag,
                tuple(sorted(node.attributes.items())),
                tuple(shape(child) for child in node.child_elements()),
            )
        assert shape(pretty) == shape(tree)

    @settings(max_examples=60, deadline=None)
    @given(text_values)
    def test_text_escaping(self, value):
        tree = XmlElement("t", {}, [XmlText(value)])
        assert parse_xml(tree.serialize()).text_content() == value.strip()


# -- hash index vs a full scan --------------------------------------------------

SUBJECTS, PREDICATES, SOURCES = ("s0", "s1", "s2"), ("p0", "p1"), ("u0", "u1", "u2")
triple_strategy = st.builds(
    Triple,
    st.sampled_from(SUBJECTS),
    st.sampled_from(PREDICATES),
    st.integers(0, 3),
    st.sampled_from(SOURCES),
)
store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add_all"), st.lists(triple_strategy, max_size=4)),
        st.tuples(
            st.just("remove"),
            st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES), st.integers(0, 3)),
        ),
        st.tuples(
            st.just("replace_source"),
            st.tuples(st.sampled_from(SOURCES), st.lists(triple_strategy, max_size=4)),
        ),
    ),
    max_size=12,
)


class TestRelationalSemantics:
    @settings(max_examples=40, deadline=None)
    @given(store_ops)
    def test_index_scan_equals_full_scan(self, ops):
        """Every ``TripleStore.match`` index path equals a filter over
        ``all_triples()``, in the same order and with the same
        timestamps, after each random mutation."""
        store = TripleStore()
        for op, args in ops:
            if op == "add_all":
                store.add_all(args)
            elif op == "remove":
                store.remove(*args)
            else:
                store.replace_source(*args)
            everything = [(t, t.timestamp) for t in store.all_triples()]
            for subject in (None, *SUBJECTS):
                for predicate in (None, *PREDICATES):
                    for obj in (None, 1):
                        for source in (None, *SOURCES):
                            indexed = [
                                (t, t.timestamp)
                                for t in store.match(subject, predicate, obj, source)
                            ]
                            assert indexed == [
                                (t, stamp)
                                for t, stamp in everything
                                if subject in (None, t.subject)
                                and predicate in (None, t.predicate)
                                and obj in (None, t.object)
                                and source in (None, t.source)
                            ]
            assert store.predicates() == {t.predicate for t, _stamp in everything}
            assert store.sources() == {t.source for t, _stamp in everything}


# -- containment properties -----------------------------------------------------------


class TestContainmentProperties:
    QUERIES = [
        "q(X) :- r(X, Y)",
        "q(X) :- r(X, Y), s(Y)",
        "q(X) :- r(X, X)",
        "q(X) :- r(X, 'a')",
        "q(X) :- r(X, Y), r(Y, X)",
        "q(X) :- s(X)",
    ]

    def test_reflexive(self):
        for text in self.QUERIES:
            query = parse_query(text)
            assert is_contained_in(query, query)

    def test_transitive_on_chain(self):
        q1 = parse_query("q(X) :- r(X, Y), s(Y), r(X, 'a')")
        q2 = parse_query("q(X) :- r(X, Y), s(Y)")
        q3 = parse_query("q(X) :- r(X, Y)")
        assert is_contained_in(q1, q2)
        assert is_contained_in(q2, q3)
        assert is_contained_in(q1, q3)

    def test_minimize_union_preserves_semantics(self):
        queries = [parse_query(text) for text in self.QUERIES]
        kept = minimize_union(queries)
        # Every dropped query is contained in some kept one.
        for query in queries:
            assert any(is_contained_in(query, keep) for keep in kept)
