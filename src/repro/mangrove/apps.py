"""Instant-gratification applications (Section 2.2).

"Instant gratification is provided by building a set of applications
over MANGROVE that immediately show the user the value of structuring
her data."  Every application here subscribes to the triple store and
refreshes the moment anything is published; each picks the cleaning
policy appropriate to its tolerance for dirt (Section 2.3).

The concrete applications are the ones the paper lists: "an online
department schedule ... a departmental paper database, a 'Who's Who',
and an annotation-enabled search engine" (plus the phone-directory
example of Section 2.3).

The delta protocol (PR 4 — incremental view maintenance)
--------------------------------------------------------

The seed rebuilt every app's view from the whole store on every
mutation batch — O(corpus) per publish, which collapses at "heavy
traffic from millions of users" scale.  Apps now subscribe via
:meth:`~repro.rdf.store.TripleStore.subscribe_delta` and maintain their
rows incrementally:

* Rows are keyed by subject.  On a :class:`~repro.rdf.triples.Delta`,
  only the subjects named in the delta are re-derived
  (:meth:`InstantApp._derive`), so a one-page publish costs O(changed
  page) in store reads and row derivation, not O(corpus) — plus an
  O(rows) pointer splice to refresh the ``rows`` list.
* Sorted order is maintained by bisection on a per-row *total order
  key* that reproduces the seed's stable sort exactly (sort key, then
  the seed's pre-sort iteration order), so the incremental ``rows``
  list is row-for-row identical to a full rebuild.
* The seed full-rebuild path survives verbatim: ``build_rows`` is
  untouched and :meth:`InstantApp.refresh_brute_force` re-runs it.
  ``tests/test_serve_scale.py`` pins ``rows == build_rows()`` under
  randomized publish/edit/remove streams, and
  ``benchmarks/bench_c13_serve_scale.py`` asserts the speedup.

Construct an app with ``incremental=False`` to get the seed
rebuild-on-every-notification behaviour (the benchmark baseline).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

from repro.mangrove.cleaning import CleaningPolicy, NoCleaning, PreferOwnPage
from repro.rdf import Delta, TripleStore
from repro.text import CosineIndex


class InstantApp:
    """Base class: subscribes to the store; refreshes on every publish."""

    def __init__(
        self,
        store: TripleStore,
        policy: CleaningPolicy | None = None,
        incremental: bool = True,
    ):  # noqa: D107
        self.store = store
        self.policy = policy or NoCleaning()
        self.refresh_count = 0
        self.rows: list[dict] = []
        self.incremental = incremental
        self._keys: list[tuple] = []  # sorted total-order keys
        self._sorted_rows: list[dict] = []  # rows, parallel to _keys
        self._keys_by_subject: dict[str, list[tuple]] = {}
        store.subscribe_delta(self._on_change)
        self.refresh()

    def _on_change(self, _store: TripleStore, delta: Delta) -> None:
        if not delta:
            return  # empty delta: nothing changed, nothing to refresh
        if self.incremental:
            self._apply_delta(delta)
            self.refresh_count += 1
        else:
            self.refresh_brute_force()

    def refresh(self) -> None:
        """Rebuild the app's view from the store (used at attach time)."""
        if self.incremental:
            self._rebuild()
            self.refresh_count += 1
        else:
            self.refresh_brute_force()

    def refresh_brute_force(self) -> None:
        """The seed refresh: recompute every row from the whole store."""
        self.rows = self.build_rows()
        self.refresh_count += 1

    def build_rows(self) -> list[dict]:  # pragma: no cover - abstract
        """Compute the app's rows; subclasses implement."""
        raise NotImplementedError

    # -- incremental maintenance ---------------------------------------
    def _derive(self, subject: str) -> list[tuple[tuple, dict]]:
        """``(total_order_key, row)`` pairs for one subject.

        The key must reproduce ``build_rows``'s final ordering: the sort
        key first, then the seed's pre-sort iteration order (stable-sort
        tie break).  Subclasses implement; apps that are not row-shaped
        (e.g. :class:`SemanticSearch`) override ``_rebuild`` and
        ``_apply_delta`` instead.
        """
        raise NotImplementedError

    def _reset_state(self) -> None:
        """Clear any auxiliary structures kept next to the sorted rows."""

    def _row_added(self, key: tuple, row: dict) -> None:
        """Hook: ``row`` entered the view (auxiliary index maintenance)."""

    def _row_removed(self, key: tuple, row: dict) -> None:
        """Hook: ``row`` left the view (auxiliary index maintenance)."""

    def _rebuild(self) -> None:
        self._reset_state()
        self._keys_by_subject = {}
        pairs: list[tuple[tuple, dict]] = []
        for subject in {t.subject for t in self.store.all_triples()}:
            derived = self._derive(subject)
            if derived:
                self._keys_by_subject[subject] = [key for key, _ in derived]
                pairs.extend(derived)
        pairs.sort(key=lambda pair: pair[0])
        self._keys = [key for key, _ in pairs]
        self._sorted_rows = [row for _, row in pairs]
        for key, row in pairs:
            self._row_added(key, row)
        self.rows = list(self._sorted_rows)

    def _apply_delta(self, delta: Delta) -> None:
        for subject in sorted(delta.subjects()):
            for key in self._keys_by_subject.pop(subject, ()):
                at = bisect_left(self._keys, key)
                row = self._sorted_rows[at]
                del self._keys[at]
                del self._sorted_rows[at]
                self._row_removed(key, row)
            derived = self._derive(subject)
            if derived:
                self._keys_by_subject[subject] = [key for key, _ in derived]
                for key, row in derived:
                    at = bisect_left(self._keys, key)
                    self._keys.insert(at, key)
                    self._sorted_rows.insert(at, row)
                    self._row_added(key, row)
        self.rows = list(self._sorted_rows)

    # -- helpers ------------------------------------------------------------
    def _entities(self, type_name: str) -> list[str]:
        return sorted(self.store.subjects("rdf:type", type_name))

    def _types_of(self, subject: str) -> set[object]:
        return set(self.store.objects(subject, "rdf:type"))

    def _prop(self, subject: str, predicate: str) -> object | None:
        return self.policy.value(self.store, subject, predicate)


class DepartmentCalendar(InstantApp):
    """The department-wide schedule: courses and talks with times.

    Dirt-tolerant (NoCleaning) by default: a wrong room number is easy
    for a reader to double-check via the source page.
    """

    def build_rows(self) -> list[dict]:
        rows: list[dict] = []
        for course in self._entities("course"):
            time = self._prop(course, "course.time")
            if time is None:
                continue  # partial data is fine; unscheduled items are skipped
            rows.append(
                {
                    "kind": "course",
                    "title": self._prop(course, "course.title"),
                    "time": time,
                    "location": self._prop(course, "course.location"),
                    "source": course,
                }
            )
        for talk in self._entities("talk"):
            date = self._prop(talk, "talk.date")
            if date is None:
                continue
            rows.append(
                {
                    "kind": "talk",
                    "title": self._prop(talk, "talk.title"),
                    "time": f"{date} {self._prop(talk, 'talk.time') or ''}".strip(),
                    "location": self._prop(talk, "talk.location"),
                    "source": talk,
                }
            )
        rows.sort(key=lambda row: (str(row["time"]), str(row["title"])))
        return rows

    def _derive(self, subject: str) -> list[tuple[tuple, dict]]:
        # Tie break = seed pre-sort order: all courses (subject-sorted)
        # before all talks (subject-sorted); hence (sort key, group, subject).
        pairs: list[tuple[tuple, dict]] = []
        types = self._types_of(subject)
        if "course" in types:
            time = self._prop(subject, "course.time")
            if time is not None:
                row = {
                    "kind": "course",
                    "title": self._prop(subject, "course.title"),
                    "time": time,
                    "location": self._prop(subject, "course.location"),
                    "source": subject,
                }
                pairs.append(((str(time), str(row["title"]), 0, subject), row))
        if "talk" in types:
            date = self._prop(subject, "talk.date")
            if date is not None:
                time = f"{date} {self._prop(subject, 'talk.time') or ''}".strip()
                row = {
                    "kind": "talk",
                    "title": self._prop(subject, "talk.title"),
                    "time": time,
                    "location": self._prop(subject, "talk.location"),
                    "source": subject,
                }
                pairs.append(((str(time), str(row["title"]), 1, subject), row))
        return pairs


class WhoIsWho(InstantApp):
    """The department "Who's Who": people with contact details."""

    def build_rows(self) -> list[dict]:
        rows: list[dict] = []
        for person in self._entities("person"):
            name = self._prop(person, "person.name")
            if name is None:
                continue
            rows.append(
                {
                    "name": name,
                    "email": self._prop(person, "person.email"),
                    "office": self._prop(person, "person.office"),
                    "position": self._prop(person, "person.position"),
                    "source": person,
                }
            )
        rows.sort(key=lambda row: str(row["name"]))
        return rows

    def _derive(self, subject: str) -> list[tuple[tuple, dict]]:
        if "person" not in self._types_of(subject):
            return []
        name = self._prop(subject, "person.name")
        if name is None:
            return []
        row = {
            "name": name,
            "email": self._prop(subject, "person.email"),
            "office": self._prop(subject, "person.office"),
            "position": self._prop(subject, "person.position"),
            "source": subject,
        }
        return [((str(name), subject), row)]


class PhoneDirectory(InstantApp):
    """The Section-2.3 example: phone numbers from the owner's own pages.

    Defaults to :class:`PreferOwnPage`, the source-URL heuristic the
    paper describes for exactly this application.  ``lookup`` is served
    from a name-keyed dict maintained alongside ``rows`` (the seed
    scanned every row per call).
    """

    def __init__(
        self,
        store: TripleStore,
        policy: CleaningPolicy | None = None,
        incremental: bool = True,
    ):  # noqa: D107
        self._by_name: dict[object, list[tuple[tuple, dict]]] = {}
        super().__init__(store, policy or PreferOwnPage(), incremental)

    def build_rows(self) -> list[dict]:
        rows: list[dict] = []
        for person in self._entities("person"):
            name = self._prop(person, "person.name")
            phone = self._prop(person, "person.phone")
            if name is None or phone is None:
                continue
            rows.append({"name": name, "phone": phone, "source": person})
        rows.sort(key=lambda row: str(row["name"]))
        return rows

    def _derive(self, subject: str) -> list[tuple[tuple, dict]]:
        if "person" not in self._types_of(subject):
            return []
        name = self._prop(subject, "person.name")
        phone = self._prop(subject, "person.phone")
        if name is None or phone is None:
            return []
        return [((str(name), subject), {"name": name, "phone": phone, "source": subject})]

    def _reset_state(self) -> None:
        self._by_name = {}

    def _row_added(self, key: tuple, row: dict) -> None:
        bucket = self._by_name.setdefault(row["name"], [])
        insort(bucket, (key, row), key=lambda pair: pair[0])

    def _row_removed(self, key: tuple, row: dict) -> None:
        bucket = self._by_name.get(row["name"], [])
        at = bisect_left(bucket, key, key=lambda pair: pair[0])
        if at < len(bucket) and bucket[at][0] == key:
            del bucket[at]
        if not bucket:
            self._by_name.pop(row["name"], None)

    def lookup(self, name: str) -> object | None:
        """Phone number for an exact name, post-cleaning.

        Dict-served in incremental mode (first row in ``rows`` order);
        falls back to the seed linear scan otherwise.
        """
        if self.incremental:
            bucket = self._by_name.get(name)
            return bucket[0][1]["phone"] if bucket else None
        for row in self.rows:
            if row["name"] == name:
                return row["phone"]
        return None


class PaperDatabase(InstantApp):
    """The departmental publication list."""

    def build_rows(self) -> list[dict]:
        rows: list[dict] = []
        for paper in self._entities("paper"):
            title = self._prop(paper, "paper.title")
            if title is None:
                continue
            authors = sorted(
                str(value) for value in self.store.objects(paper, "paper.author")
            )
            rows.append(
                {
                    "title": title,
                    "authors": authors,
                    "venue": self._prop(paper, "paper.venue"),
                    "year": self._prop(paper, "paper.year"),
                    "source": paper,
                }
            )
        rows.sort(key=lambda row: (str(row["year"]), str(row["title"])))
        return rows

    def _derive(self, subject: str) -> list[tuple[tuple, dict]]:
        if "paper" not in self._types_of(subject):
            return []
        title = self._prop(subject, "paper.title")
        if title is None:
            return []
        row = {
            "title": title,
            "authors": sorted(
                str(value) for value in self.store.objects(subject, "paper.author")
            ),
            "venue": self._prop(subject, "paper.venue"),
            "year": self._prop(subject, "paper.year"),
            "source": subject,
        }
        return [((str(row["year"]), str(title), subject), row)]

    def by_author(self, author: str) -> list[dict]:
        """Papers with the given author string."""
        return [row for row in self.rows if author in row["authors"]]


@dataclass
class SearchResult:
    """One hit of the annotation-enabled search engine."""

    subject: str
    score: float
    type_name: str | None


class SemanticSearch(InstantApp):
    """The "annotation-enabled search engine".

    Keyword search (TF/IDF over each entity's annotated text) combined
    with structured filters — the chasm-crossing hybrid: U-WORLD ranking
    over S-WORLD entities.  Incrementally maintained: a publish hands
    only the touched subjects' documents to
    :class:`~repro.text.CosineIndex`, which keeps every other document's
    analysis and postings; the first search after it re-analyses those
    documents, recounts document frequencies and re-weights only the
    documents holding a term whose IDF moved.
    """

    def build_rows(self) -> list[dict]:
        self._index = CosineIndex()
        self._types: dict[str, str] = {}
        documents: dict[str, list[str]] = {}
        for triple in self.store.all_triples():
            if triple.predicate == "rdf:type":
                self._types[triple.subject] = str(triple.object)
                continue
            documents.setdefault(triple.subject, []).append(str(triple.object))
        for subject, texts in documents.items():
            self._index.add(subject, " ".join(texts))
        self._documents = documents  # kept for delta maintenance
        return [{"indexed": len(documents)}]

    def _rebuild(self) -> None:
        self.rows = self.build_rows()  # also refreshes _index/_types/_documents

    def _apply_delta(self, delta: Delta) -> None:
        for subject in sorted(delta.subjects()):
            texts: list[str] = []
            type_name: str | None = None
            for triple in self.store.match(subject):
                if triple.predicate == "rdf:type":
                    type_name = str(triple.object)  # last one wins, as in rebuild
                else:
                    texts.append(str(triple.object))
            if type_name is None:
                self._types.pop(subject, None)
            else:
                self._types[subject] = type_name
            if texts:
                self._documents[subject] = texts
                self._index.add(subject, " ".join(texts))
            else:
                self._documents.pop(subject, None)
                self._index.remove(subject)
        self.rows = [{"indexed": len(self._documents)}]

    def search(self, query: str, type_name: str | None = None, limit: int = 10) -> list[SearchResult]:
        """Ranked entities matching the keywords, optionally typed."""
        # A type filter applies before the cut, so it ranks every candidate.
        hits = self._index.search(query, limit if type_name is None else len(self._index))
        results: list[SearchResult] = []
        for subject, score in hits:
            subject_type = self._types.get(subject)
            if type_name is None or subject_type == type_name:
                results.append(SearchResult(subject, score, subject_type))
        return results[:limit]
