"""Experiment F4 — Figure 4: the Berkeley-to-MIT template mapping.

Runs the *exact* mapping printed in the figure over generated Berkeley
schedules of growing size, checks the output conforms to MIT's DTD
(Figure 3), and times mapping execution.  The template compiles to two
GLAV mappings (one per binding annotation) over Berkeley's shredded
document; ``apply`` answers MIT's ``course`` and ``subject`` relations
through the PDMS and nests the rows back into the template.
"""

import pytest

from repro.bench import ResultTable
from repro.xmlmodel import TemplateMapping, parse_dtd

from bench_f3_peer_schemas import MIT_DTD, berkeley_document

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


class TestF4MappingLanguage:
    def test_mapping_scaling(self, benchmark):
        mapping = TemplateMapping.parse(FIGURE4_MAPPING)
        mit_dtd = parse_dtd(MIT_DTD)
        table = ResultTable(
            "F4 (Figure 4): Berkeley->MIT template mapping execution",
            ["berkeley courses", "mit courses", "mit subjects", "valid vs MIT DTD"],
        )
        for depts, courses in ((2, 5), (5, 20), (10, 50)):
            source = berkeley_document(1, depts, courses)
            result = mapping.apply({"Berkeley.xml": source})
            mit_courses = result.child_elements("course")
            subjects = sum(len(c.child_elements("subject")) for c in mit_courses)
            valid = mit_dtd.validate(result) == []
            table.add_row(depts * courses, len(mit_courses), subjects, valid)
            assert len(mit_courses) == depts  # one per Berkeley dept
            assert subjects == depts * courses
            assert valid
        table.note(
            "template annotations: one MIT <course> per Berkeley dept binding, "
            "one <subject> per nested course binding — verbatim Figure 4, "
            "compiled to GLAV mappings and answered by the PDMS."
        )
        table.show()
        source = berkeley_document(1, 5, 20)
        benchmark(mapping.apply, {"Berkeley.xml": source})

    def test_values_transported_exactly(self):
        mapping = TemplateMapping.parse(FIGURE4_MAPPING)
        source = berkeley_document(1, 1, 3, seed=5)
        result = mapping.apply({"Berkeley.xml": source})
        titles_in = [t for t in source.descendants() if t.tag == "title"]
        titles_out = [t for t in result.descendants() if t.tag == "title"]
        assert [t.text_content() for t in titles_in] == [
            t.text_content() for t in titles_out
        ]
