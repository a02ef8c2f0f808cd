"""Tests for the XML tree, parser, DTDs and template mappings."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.piazza import PDMS
from repro.xmlmodel import (
    Dtd,
    DtdError,
    MappingError,
    TemplateMapping,
    XmlParseError,
    element,
    parse_dtd,
    parse_xml,
    shred,
)

BERKELEY_DTD = """
Element schedule(college*)
Element college(name, dept*)
Element dept(name, course*)
Element course(title, size)
Element name(#PCDATA)
Element title(#PCDATA)
Element size(#PCDATA)
"""

MIT_DTD = """
Element catalog(course*)
Element course(name, subject*)
Element subject(title, enrollment)
Element name(#PCDATA)
Element title(#PCDATA)
Element enrollment(#PCDATA)
"""

FIGURE4_MAPPING = """
<catalog>
  <course> {$c = document("Berkeley.xml")/schedule/college/dept}
    <name> $c/name/text() </name>
    <subject> { $s = $c/course }
      <title> $s/title/text() </title>
      <enrollment> $s/size/text() </enrollment>
    </subject>
  </course>
</catalog>
"""

BERKELEY_DOC = """
<schedule>
  <college><name>Engineering</name>
    <dept><name>EECS</name>
      <course><title>Databases</title><size>100</size></course>
      <course><title>Operating Systems</title><size>80</size></course>
    </dept>
    <dept><name>CivE</name>
      <course><title>Statics</title><size>60</size></course>
    </dept>
  </college>
</schedule>
"""


class TestParser:
    def test_roundtrip(self):
        root = parse_xml("<a x='1'><b>hello</b><c/></a>")
        assert root.tag == "a"
        assert root.attributes == {"x": "1"}
        assert root.first("b").text_content() == "hello"
        assert root.first("c").children == []

    def test_entities(self):
        root = parse_xml("<a>&lt;tag&gt; &amp; more</a>")
        assert root.text_content() == "<tag> & more"

    def test_comments_skipped(self):
        root = parse_xml("<a><!-- note --><b/></a>")
        assert [c.tag for c in root.child_elements()] == ["b"]

    def test_prolog_and_doctype(self):
        root = parse_xml('<?xml version="1.0"?><!DOCTYPE a><a/>')
        assert root.tag == "a"

    def test_mismatched_tags_rejected(self):
        with pytest.raises(XmlParseError):
            parse_xml("<a><b></a></b>")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(XmlParseError):
            parse_xml("<a/><b/>")

    def test_unquoted_attribute_rejected(self):
        with pytest.raises(XmlParseError):
            parse_xml("<a x=1/>")

    def test_serialize_escapes(self):
        root = element("a", "x < y & z")
        assert parse_xml(root.serialize()).text_content() == "x < y & z"


class TestTree:
    def test_descendants_document_order(self):
        root = parse_xml("<a><b><c/></b><d/></a>")
        assert [node.tag for node in root.descendants()] == ["b", "c", "d"]

    def test_equality_ignores_whitespace_nodes(self):
        a = parse_xml("<a>\n  <b>x</b>\n</a>")
        b = parse_xml("<a><b>x</b></a>")
        assert a == b

    def test_pretty_serialization_parses_back(self):
        root = parse_xml(BERKELEY_DOC)
        pretty = root.serialize(indent=2)
        assert parse_xml(pretty) == root


class TestDtd:
    def test_parse_figure3_syntax(self):
        dtd = parse_dtd(BERKELEY_DTD)
        assert dtd.root == "schedule"
        assert dtd.elements["college"].child_names() == {"name", "dept"}

    def test_parse_classic_syntax(self):
        dtd = parse_dtd("<!ELEMENT a (b*, c?)><!ELEMENT b (#PCDATA)><!ELEMENT c EMPTY>")
        assert dtd.root == "a"
        assert dtd.elements["c"].empty

    def test_validate_conforming_document(self):
        dtd = parse_dtd(BERKELEY_DTD)
        assert dtd.validate(parse_xml(BERKELEY_DOC)) == []

    def test_validate_wrong_root(self):
        dtd = parse_dtd(BERKELEY_DTD)
        errors = dtd.validate(parse_xml("<catalog/>"))
        assert any("root" in error for error in errors)

    def test_validate_bad_content(self):
        dtd = parse_dtd(BERKELEY_DTD)
        doc = parse_xml("<schedule><college><dept/></college></schedule>")
        errors = dtd.validate(doc)
        assert errors  # college requires a leading <name>

    def test_validate_undeclared_element(self):
        dtd = parse_dtd(BERKELEY_DTD)
        doc = parse_xml("<schedule><mystery/></schedule>")
        errors = dtd.validate(doc)
        assert any("undeclared" in error for error in errors)

    def test_choice_model(self):
        dtd = parse_dtd("<!ELEMENT a (b | c)+><!ELEMENT b EMPTY><!ELEMENT c EMPTY>")
        assert dtd.is_valid(parse_xml("<a><b/><c/><b/></a>"))
        assert not dtd.is_valid(parse_xml("<a/>"))

    def test_optional_marker(self):
        dtd = parse_dtd("<!ELEMENT a (b?)><!ELEMENT b EMPTY>")
        assert dtd.is_valid(parse_xml("<a/>"))
        assert dtd.is_valid(parse_xml("<a><b/></a>"))
        assert not dtd.is_valid(parse_xml("<a><b/><b/></a>"))

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(DtdError):
            parse_dtd("Element a(b)\nElement a(c)\nElement b(#PCDATA)\nElement c(#PCDATA)")

    def test_element_paths(self):
        dtd = parse_dtd(MIT_DTD)
        paths = dtd.element_paths()
        assert ("catalog", "course", "subject", "title") in paths


class TestFigure4Mapping:
    def test_exact_paper_mapping(self):
        mapping = TemplateMapping.parse(FIGURE4_MAPPING)
        result = mapping.apply({"Berkeley.xml": parse_xml(BERKELEY_DOC)})
        # Two depts -> two courses in MIT's schema.
        courses = result.child_elements("course")
        assert [c.first("name").text_content() for c in courses] == ["EECS", "CivE"]
        eecs_subjects = courses[0].child_elements("subject")
        assert len(eecs_subjects) == 2
        assert eecs_subjects[0].first("title").text_content() == "Databases"
        assert eecs_subjects[0].first("enrollment").text_content() == "100"

    def test_result_validates_against_mit_dtd(self):
        mapping = TemplateMapping.parse(FIGURE4_MAPPING)
        result = mapping.apply({"Berkeley.xml": parse_xml(BERKELEY_DOC)})
        assert parse_dtd(MIT_DTD).validate(result) == []

    def test_source_documents(self):
        mapping = TemplateMapping.parse(FIGURE4_MAPPING)
        assert mapping.source_documents() == {"Berkeley.xml"}

    def test_missing_document_raises(self):
        mapping = TemplateMapping.parse(FIGURE4_MAPPING)
        with pytest.raises(MappingError):
            mapping.apply({})

    def test_unbound_variable_raises(self):
        template = "<out><v> $nope/x/text() </v></out>"
        with pytest.raises(MappingError):
            TemplateMapping.parse(template).apply({})

    def test_literal_text_passthrough(self):
        template = '<out> {$d = document("d.xml")/r} <k>fixed</k> </out>'
        result = TemplateMapping.parse(template).apply({"d.xml": parse_xml("<r/>")})
        assert result.first("k").text_content() == "fixed"

    def test_empty_binding_produces_no_instances(self):
        template = '<out><row> {$d = document("d.xml")/r/item} </row></out>'
        result = TemplateMapping.parse(template).apply({"d.xml": parse_xml("<r/>")})
        assert result.child_elements("row") == []


def _figure4_pdms(document):
    """Berkeley's document shredded on its own peer, Figure 4 compiled to
    mappings into MIT's schema, both registered on one PDMS."""
    pdms = PDMS()
    shred(pdms, "Berkeley", document)
    mapping = TemplateMapping.parse(FIGURE4_MAPPING)
    for compiled in mapping.to_mappings("MIT", {"Berkeley.xml": "Berkeley"}):
        pdms.add_mapping(compiled.name, compiled.source, compiled.target)
    return pdms


_NAMES = st.sampled_from(["EECS", "CivE", "Math"])
_COURSES = st.lists(
    st.tuples(st.sampled_from(["Databases", "Statics"]), st.sampled_from(["60", "100"])),
    max_size=4,
)
_SCHEDULES = st.lists(st.lists(st.tuples(_NAMES, _COURSES), max_size=3), max_size=3)


class TestFigure4Compiled:
    def test_shred_numbers_elements_in_preorder(self):
        pdms = PDMS()
        peer = shred(pdms, "d", parse_xml("<r><a> x </a><b><c>y</c></b></r>"))
        assert sorted(peer.data["el"]) == [
            (1, 0, "r"), (2, 1, "a"), (3, 1, "b"), (4, 3, "c"),
        ]
        assert sorted(peer.data["txt"]) == [(1, ""), (2, "x"), (3, ""), (4, "y")]

    def test_each_binding_compiles_to_one_mapping(self):
        mapping = TemplateMapping.parse(FIGURE4_MAPPING)
        course, subject = mapping.to_mappings("MIT", {"Berkeley.xml": "Berkeley"})
        assert [m.target.body[0].predicate for m in (course, subject)] == [
            "MIT.course", "MIT.subject",
        ]
        # own id + name; own id + the course's id + title + enrollment
        assert [len(m.target.head.args) for m in (course, subject)] == [2, 4]
        tags = [atom.args[2] for atom in subject.source.body if atom.predicate == "Berkeley!el"]
        assert tags == ["schedule", "college", "dept", "course", "title", "size"]

    def test_dept_without_name_keeps_its_subjects(self):
        pdms = _figure4_pdms(parse_xml(
            "<schedule><college><name>E</name><dept>"
            "<course><title>Statics</title><size>60</size></course>"
            "</dept></college></schedule>"
        ))
        assert pdms.answer("q(T, E) :- MIT.subject(S, C, T, E)") == {("Statics", "60")}
        assert pdms.answer("q(C) :- MIT.course(C, N)") == set()

    def test_query_at_a_third_peer_composes_through_figure4(self):
        pdms = _figure4_pdms(parse_xml(BERKELEY_DOC))
        pdms.add_peer("Stanford").add_relation("offering", ["dept", "title", "size"])
        pdms.add_mapping(
            "mit_stanford",
            "m(N, T, E) :- MIT.course(C, N), MIT.subject(S, C, T, E)",
            "m(N, T, E) :- Stanford.offering(N, T, E)",
        )
        query = "q(N, T, E) :- Stanford.offering(N, T, E)"
        expected = {
            ("EECS", "Databases", "100"),
            ("EECS", "Operating Systems", "80"),
            ("CivE", "Statics", "60"),
        }
        assert pdms.answer(query) == expected
        assert pdms.certain(query) == expected

    @pytest.mark.parametrize(
        "template, construct",
        [
            ('<out><row> {$d = document("d.xml")//item} </row></out>', "//"),
            ('<out><row> {$d = document("d.xml")/r/*} </row></out>', "*"),
            ('<out> {$d = document("d.xml")/r} <v> $d//x/text() </v> </out>', "//"),
        ],
    )
    def test_uncompilable_path_names_the_construct(self, template, construct):
        with pytest.raises(MappingError, match=f"'{re.escape(construct)}'"):
            TemplateMapping.parse(template)

    @settings(max_examples=60, deadline=None)
    @given(_SCHEDULES)
    def test_apply_equals_hand_built_mit_tree(self, colleges):
        # Depts with no courses and repeated (title, size) pairs: the
        # cases where set-valued answers could drop or merge rows.
        berkeley = element("schedule")
        mit = element("catalog")
        for number, depts in enumerate(colleges):
            college = element("college", element("name", f"College{number}"))
            for name, courses in depts:
                college.append(element("dept", element("name", name), *(
                    element("course", element("title", title), element("size", size))
                    for title, size in courses
                )))
                mit.append(element("course", element("name", name), *(
                    element("subject", element("title", title), element("enrollment", size))
                    for title, size in courses
                )))
            berkeley.append(college)
        result = TemplateMapping.parse(FIGURE4_MAPPING).apply({"Berkeley.xml": berkeley})
        assert result == mit
        assert result.serialize() == mit.serialize()
