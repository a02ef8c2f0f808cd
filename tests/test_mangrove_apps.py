"""Tests for publish, instant-gratification apps, cleaning, integrity."""

import pytest

from repro.mangrove import (
    AnnotatedDocument,
    AnnotationSession,
    ConstraintChecker,
    DepartmentCalendar,
    LatestWins,
    MajorityVote,
    NoCleaning,
    PaperDatabase,
    PeriodicCrawler,
    PhoneDirectory,
    PreferOwnPage,
    Publisher,
    SemanticSearch,
    WhoIsWho,
)
from repro.mangrove.schema import university_schema
from repro.rdf import Triple, TripleStore


@pytest.fixture
def store():
    return TripleStore()


@pytest.fixture
def publisher(store):
    return Publisher(store)


def make_course_page(url, title, time, location):
    html = f"<html><h1>{title}</h1><p>{time} in {location}</p></html>"
    doc = AnnotatedDocument(url, html, university_schema())
    doc.annotate_text(f"<h1>{title}</h1><p>{time} in {location}</p>", "course")
    doc.annotate_text(title, "course.title")
    doc.annotate_text(time, "course.time")
    doc.annotate_text(location, "course.location")
    return doc


class TestPublisher:
    def test_publish_extracts_triples(self, publisher, store):
        doc = make_course_page("http://uw.edu/c1", "DB", "MWF 10:30", "Gates 271")
        count = publisher.publish(doc)
        assert count == 4  # rdf:type + 3 properties
        assert len(store) == 4

    def test_republish_replaces(self, publisher, store):
        doc = make_course_page("http://uw.edu/c1", "DB", "MWF 10:30", "Gates 271")
        publisher.publish(doc)
        doc.html = doc.html.replace("Gates 271", "Sieg 134")
        publisher.publish(doc)
        values = store.objects("http://uw.edu/c1#course-1", "course.location")
        assert values == ["Sieg 134"]

    def test_publish_counts(self, publisher):
        doc = make_course_page("http://uw.edu/c1", "DB", "M 9", "R1")
        publisher.publish(doc)
        publisher.publish(doc)
        assert publisher.published_pages == 2


class TestInstantGratification:
    def test_calendar_updates_on_publish(self, publisher, store):
        calendar = DepartmentCalendar(store)
        assert calendar.rows == []
        before = calendar.refresh_count
        publisher.publish(make_course_page("http://uw.edu/c1", "DB", "MWF 10:30", "G271"))
        assert calendar.refresh_count > before
        assert calendar.rows[0]["title"] == "DB"

    def test_calendar_skips_unscheduled(self, publisher, store):
        calendar = DepartmentCalendar(store)
        doc = AnnotatedDocument("u", "<p>DB</p>", university_schema())
        doc.annotate_text("<p>DB</p>", "course")
        doc.annotate_text("DB", "course.title")
        publisher.publish(doc)
        assert calendar.rows == []  # no course.time: not on the calendar

    def test_calendar_includes_talks(self, publisher, store):
        calendar = DepartmentCalendar(store)
        doc = AnnotatedDocument("t", "<p>PDMS talk 2003-01-07 3pm CSE 691</p>", university_schema())
        doc.annotate_text("PDMS talk 2003-01-07 3pm CSE 691", "talk")
        doc.annotate_text("PDMS talk", "talk.title")
        doc.annotate_text("2003-01-07", "talk.date")
        doc.annotate_text("3pm", "talk.time")
        publisher.publish(doc)
        assert calendar.rows[0]["kind"] == "talk"

    def test_whos_who(self, publisher, store):
        app = WhoIsWho(store)
        doc = AnnotatedDocument("http://uw.edu/~pat", "<p>Pat Smith, pat@uw.edu</p>", university_schema())
        doc.annotate_text("<p>Pat Smith, pat@uw.edu</p>", "person")
        doc.annotate_text("Pat Smith", "person.name")
        doc.annotate_text("pat@uw.edu", "person.email")
        publisher.publish(doc)
        assert app.rows == [
            {
                "name": "Pat Smith",
                "email": "pat@uw.edu",
                "office": None,
                "position": None,
                "source": "http://uw.edu/~pat#person-1",
            }
        ]

    def test_paper_database_by_author(self, store):
        store.add_all(
            [
                Triple("p#paper-1", "rdf:type", "paper", "p"),
                Triple("p#paper-1", "paper.title", "Chasm", "p"),
                Triple("p#paper-1", "paper.author", "Halevy", "p"),
                Triple("p#paper-1", "paper.author", "Etzioni", "p"),
                Triple("p#paper-1", "paper.year", "2003", "p"),
            ]
        )
        papers = PaperDatabase(store)
        assert papers.by_author("Halevy")[0]["title"] == "Chasm"
        assert papers.by_author("Nobody") == []

    def test_semantic_search(self, store):
        store.add_all(
            [
                Triple("c1", "rdf:type", "course", "u1"),
                Triple("c1", "course.title", "Ancient History", "u1"),
                Triple("c2", "rdf:type", "course", "u2"),
                Triple("c2", "course.title", "Databases", "u2"),
                Triple("t1", "rdf:type", "talk", "u3"),
                Triple("t1", "talk.title", "History of Databases", "u3"),
            ]
        )
        search = SemanticSearch(store)
        hits = search.search("history")
        assert {h.subject for h in hits} == {"c1", "t1"}
        typed = search.search("history", type_name="course")
        assert [h.subject for h in typed] == ["c1"]

    def test_semantic_search_filters_by_type_before_truncating(self, store):
        for i in range(50):
            store.add_all(
                [
                    Triple(f"c{i:02}", "rdf:type", "course", "u"),
                    Triple(f"c{i:02}", "course.title", "history", "u"),
                ]
            )
        store.add_all(
            [
                Triple("p1", "rdf:type", "person", "u"),
                Triple("p1", "person.name", "Herodotus, father of history", "u"),
            ]
        )
        search = SemanticSearch(store)
        untyped = search.search("history")
        assert [h.subject for h in untyped] == [f"c{i:02}" for i in range(10)]
        assert [h.subject for h in search.search("history", type_name="person")] == ["p1"]
        assert search.search("history", type_name="course") == untyped


class TestCleaningPolicies:
    def seed_conflict(self, store):
        subject = "http://cs.edu/~smith#person-1"
        store.add_all(
            [
                Triple(subject, "rdf:type", "person", "http://cs.edu/~smith"),
                Triple(subject, "person.name", "Smith", "http://cs.edu/~smith"),
                Triple(subject, "person.phone", "555-1111", "http://cs.edu/~smith/contact"),
                Triple(subject, "person.phone", "555-9999", "http://evil.com/page"),
                Triple(subject, "person.phone", "555-9999", "http://other.org/x"),
            ]
        )
        return subject

    def test_no_cleaning_returns_all(self, store):
        subject = self.seed_conflict(store)
        values = NoCleaning().choose(store, subject, "person.phone")
        assert set(values) == {"555-1111", "555-9999"}

    def test_prefer_own_page(self, store):
        subject = self.seed_conflict(store)
        assert PreferOwnPage().choose(store, subject, "person.phone") == ["555-1111"]

    def test_prefer_own_page_falls_back(self, store):
        store.add(Triple("u#person-1", "person.phone", "1", "http://elsewhere.net"))
        assert PreferOwnPage().choose(store, "u#person-1", "person.phone") == ["1"]

    def test_majority_vote(self, store):
        subject = self.seed_conflict(store)
        assert MajorityVote().choose(store, subject, "person.phone") == ["555-9999"]

    def test_latest_wins(self, store):
        subject = self.seed_conflict(store)
        assert LatestWins().choose(store, subject, "person.phone") == ["555-9999"]
        store.add(Triple(subject, "person.phone", "555-0000", "http://cs.edu/~smith"))
        assert LatestWins().choose(store, subject, "person.phone") == ["555-0000"]

    def test_phone_directory_uses_own_page(self, store):
        self.seed_conflict(store)
        directory = PhoneDirectory(store)
        assert directory.lookup("Smith") == "555-1111"


class TestPeriodicCrawlBaseline:
    def test_staleness_until_crawl(self, store):
        crawler = PeriodicCrawler(store, period=3)
        doc = make_course_page("u", "DB", "M 9", "R1")
        crawler.register(doc)
        crawler.tick()  # t=1: dirty, no crawl
        crawler.tick()  # t=2: dirty, no crawl
        assert len(store) == 0
        crawled = crawler.tick()  # t=3: crawl
        assert crawled and len(store) == 4
        assert crawler.staleness_ticks == 3

    def test_edit_marks_dirty(self, store):
        crawler = PeriodicCrawler(store, period=1)
        doc = make_course_page("u", "DB", "M 9", "R1")
        crawler.register(doc)
        crawler.tick()
        doc.html = doc.html.replace("R1", "R2")
        crawler.edit("u")
        assert crawler.tick()
        assert store.objects("u#course-1", "course.location") == ["R2"]

    def test_unknown_edit_rejected(self, store):
        crawler = PeriodicCrawler(store, period=1)
        with pytest.raises(KeyError):
            crawler.edit("nope")


class TestConstraintChecker:
    def test_single_valued_violation(self, store):
        store.add(Triple("s", "person.phone", "1", "http://a"))
        store.add(Triple("s", "person.phone", "2", "http://b"))
        checker = ConstraintChecker(single_valued={"person.phone"})
        violations = checker.check(store)
        assert len(violations) == 1
        assert violations[0].kind == "multiple-values"
        assert set(violations[0].authors) == {"http://a", "http://b"}

    def test_required_property(self, store):
        store.add(Triple("c1", "rdf:type", "course", "http://a"))
        checker = ConstraintChecker(required={"course": {"course.title"}})
        violations = checker.check(store)
        assert violations[0].kind == "missing-required"

    def test_referential(self, store):
        store.add_all(
            [
                Triple("p1", "rdf:type", "person", "http://p"),
                Triple("p1", "person.name", "Smith", "http://p"),
                Triple("c1", "course.instructor", "Smith", "http://c"),
                Triple("c2", "course.instructor", "Ghost", "http://c2"),
            ]
        )
        checker = ConstraintChecker(referential={"course.instructor": "person"})
        violations = checker.check(store)
        assert len(violations) == 1
        assert violations[0].subject == "c2"

    def test_notifications_grouped_by_author(self, store):
        store.add(Triple("s", "person.phone", "1", "http://a"))
        store.add(Triple("s", "person.phone", "2", "http://b"))
        checker = ConstraintChecker(single_valued={"person.phone"})
        queue = checker.notifications(store)
        assert set(queue) == {"http://a", "http://b"}

    def test_clean_store_no_violations(self, store):
        store.add(Triple("s", "person.phone", "1", "http://a"))
        checker = ConstraintChecker(
            single_valued={"person.phone"},
            required={},
            referential={},
        )
        assert checker.check(store) == []


class TestAnnotationSessionEndToEnd:
    def test_full_workflow(self, store, publisher):
        calendar = DepartmentCalendar(store)
        doc = AnnotatedDocument(
            "http://uw.edu/cse143",
            "<html><h1>Intro Programming</h1><p>MWF 10:30, Gates 271</p></html>",
            None,
        )
        session = AnnotationSession(doc, university_schema(), publisher)
        assert "course.title" in session.schema_tree()
        session.highlight_and_tag(
            "<h1>Intro Programming</h1><p>MWF 10:30, Gates 271</p>", "course"
        )
        session.highlight_and_tag("Intro Programming", "course.title")
        session.highlight_and_tag("MWF 10:30", "course.time")
        published = session.publish()
        assert published == 3
        assert calendar.rows[0]["title"] == "Intro Programming"
        # Tweak-and-republish feedback loop:
        session.highlight_and_tag("Gates 271", "course.location")
        session.publish()
        assert calendar.rows[0]["location"] == "Gates 271"

    def test_undo(self, store, publisher):
        doc = AnnotatedDocument("u", "<p>hi there</p>", None)
        session = AnnotationSession(doc, university_schema(), publisher)
        session.highlight_and_tag("hi", "person.name")
        assert session.annotation_count() == 1
        assert session.undo()
        assert session.annotation_count() == 0
        assert not session.undo()

    def test_suggestions_on_bad_tag(self, store, publisher):
        doc = AnnotatedDocument("u", "<p>hi</p>", None)
        session = AnnotationSession(doc, university_schema(), publisher)
        with pytest.raises(Exception):
            session.highlight_and_tag("hi", "course.professor")
