"""Triple store over one storage engine and four hash indexes.

The "simple graph representation" of the paper: every triple is one
``(subject, predicate, object, source, timestamp)`` row in a
:class:`~repro.storage.engine.StorageEngine`, filed by row id under
four in-memory hash indexes — subject, predicate, the (subject,
predicate) pair and source.  Row ids grow monotonically and recovery
rebuilds the indexes in row-id order, so each index bucket (an
insertion-ordered ``dict[int, None]``) is already ascending.  Every
mutation goes through one all-or-nothing write path, and a triple's
timestamp is its row id + 1.

The delta protocol (PR 4 — the incremental serving layer)
---------------------------------------------------------

MANGROVE's promise is that "the database is typically updated the
moment a user publishes new or revised content" and every application
reflects it instantly.  At corpus scale that only holds if a publish
costs O(changed triples), not O(corpus), end to end:

* **Delta notifications** — every mutation batch fires exactly one
  :class:`~repro.rdf.triples.Delta` carrying the ``(added, removed)``
  triple batches.  :meth:`subscribe_delta` listeners (the incremental
  instant apps, the incremental constraint checker) re-derive only the
  subjects named in the delta; :meth:`subscribe` keeps the seed
  ``listener(store)`` ping for callers that want a bare change signal.
  Listeners of both kinds are invoked in subscription order.
* **Atomic replace** — :meth:`replace_source` diffs a page's old
  triples against the fresh extraction, deletes/inserts only the
  difference, and fires *one* delta (or none, when the re-publish
  changed nothing).  The seed modelled a re-publish as
  ``remove_source`` + ``add_all``, which notified **twice** and
  churned every triple of the page.
* **Indexed mutation** — ``remove_source`` / ``remove`` resolve their
  victims through the source and (subject, predicate) hash indexes
  instead of the seed's full-table ``delete_where`` scans.
* **Indexed match** — :meth:`match` serves fully/partially bound
  lookups straight from index buckets over raw row tuples (no per-row
  dict construction or Python filter closure), in ascending insertion
  order — the iteration order every cleaning policy and parity oracle
  depends on.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator

from repro.rdf.triples import Delta, Triple
from repro.storage.engine import MemoryEngine
from repro.storage.records import encode_delta


class TripleStore:
    """Add/remove/match triples; provenance-aware deletion by source.

    ``engine`` is the :class:`~repro.storage.engine.StorageEngine`
    holding the rows (a :class:`~repro.storage.engine.MemoryEngine` by
    default): a :class:`~repro.storage.log.LogEngine` makes the store
    durable (each logical mutation — one ``add_all``, one
    ``replace_source`` — is exactly one WAL record whose logical
    payload is the same :class:`~repro.rdf.triples.Delta` the
    subscribers receive).  A triple's timestamp is its row id + 1, so
    constructing a store over a recovered engine re-attaches with one
    pass over the engine scan that rebuilds the indexes; the engine's
    ``next_id`` resumes the timestamps.
    """

    def __init__(self, name: str = "annotations", engine=None):  # noqa: D107
        self.name = name
        self.engine = engine if engine is not None else MemoryEngine()
        # key -> {row id: None}, ascending; empty buckets are dropped.
        self._by_subject: dict[str, dict[int, None]] = {}
        self._by_predicate: dict[str, dict[int, None]] = {}
        self._by_pair: dict[tuple[str, str], dict[int, None]] = {}
        self._by_source: dict[str, dict[int, None]] = {}
        for row_id, raw in self.engine.scan():
            self._index(row_id, raw)
        # (listener, wants_delta) in subscription order.
        self._listeners: list[tuple[Callable, bool]] = []
        # Triples added with notify=False, owed to the next delta.
        self._pending_added: list[Triple] = []

    # -- change notification (instant gratification hook) ---------------
    def subscribe(self, listener) -> None:
        """Register ``listener(store)`` called after every mutation batch.

        The seed-era bare ping: the listener learns *that* something
        changed, not what.  Incremental consumers should prefer
        :meth:`subscribe_delta`.
        """
        self._listeners.append((listener, False))

    def subscribe_delta(self, listener) -> None:
        """Register ``listener(store, delta)`` called once per mutation batch.

        MANGROVE's instant-gratification applications subscribe here so
        they refresh "the moment a user publishes new or revised
        content" — and, given the :class:`~repro.rdf.triples.Delta`,
        they can do so by re-deriving only the touched subjects.
        """
        self._listeners.append((listener, True))

    def _notify(self, delta: Delta) -> None:
        if self._pending_added:
            # Flush adds whose notification was suppressed: delta
            # listeners must eventually see every triple exactly once.
            # A pending triple this very batch removed is netted out of
            # both sides (timestamps are unique per row) — advertising
            # it as added would resurrect a triple no longer stored.
            removed_ts = {t.timestamp for t in delta.removed}
            cancelled = {
                t.timestamp for t in self._pending_added if t.timestamp in removed_ts
            }
            delta = Delta(
                added=tuple(
                    t for t in self._pending_added if t.timestamp not in cancelled
                )
                + delta.added,
                removed=tuple(
                    t for t in delta.removed if t.timestamp not in cancelled
                ),
            )
            self._pending_added.clear()
            if not delta:
                return  # everything cancelled out: nothing to report
        for listener, wants_delta in self._listeners:
            if wants_delta:
                listener(self, delta)
            else:
                listener(self)

    # -- mutation ---------------------------------------------------------
    def _buckets(self, raw: tuple) -> tuple:
        """The four (index, key) pairs a stored row is filed under."""
        return (
            (self._by_subject, raw[0]),
            (self._by_predicate, raw[1]),
            (self._by_pair, (raw[0], raw[1])),
            (self._by_source, raw[3]),
        )

    def _index(self, row_id: int, raw: tuple) -> None:
        for index, key in self._buckets(raw):
            index.setdefault(key, {})[row_id] = None

    def _write(self, doomed: list, fresh: Iterable[Triple], notify: bool = True) -> Delta:
        """The one mutation path: delete ``doomed``, insert ``fresh``.

        ``doomed`` holds live ``(row_id, raw)`` rows; ``fresh`` holds the
        triples to insert, each stamped with its row id + 1, so a reopened
        store resumes exactly where an uninterrupted one would.  Every
        check and the logical payload's encoding run before the engine is
        touched: a mutation that raises leaves no row, index entry, WAL
        record or delta behind.  A change fires one delta (deferred to the
        next one when ``notify`` is False).
        """
        stamp = self.engine.next_id + 1
        raws = [
            (t.subject, t.predicate, t.object, t.source, stamp + i)
            for i, t in enumerate(fresh)
        ]
        for raw in raws:
            if not (
                isinstance(raw[0], str) and isinstance(raw[1], str) and isinstance(raw[3], str)
            ):
                raise TypeError(f"subject, predicate and source must be str: {raw!r}")
        delta = Delta(
            added=tuple(Triple(*raw) for raw in raws),
            removed=tuple(Triple(*raw) for _row_id, raw in doomed),
        )
        if not delta:
            return delta
        batch = self.engine.batch()
        payload = encode_delta(delta) if batch.wants_logical else None
        with batch:
            for row_id, raw in doomed:
                self.engine.delete(row_id)
                for index, key in self._buckets(raw):
                    bucket = index[key]
                    del bucket[row_id]
                    if not bucket:
                        del index[key]
            for raw in raws:
                self._index(self.engine.append(raw), raw)
            if payload is not None:
                batch.annotate("delta", payload)
        # Listeners fire only after the WAL record is committed, so a
        # crash never shows subscribers a change the log lost.
        if notify:
            self._notify(delta)
        else:
            self._pending_added.extend(delta.added)
        return delta

    def add(self, triple: Triple, notify: bool = True) -> Triple:
        """Insert one triple; assigns the logical timestamp.

        ``notify=False`` defers (not drops) the notification: the
        triple is folded into the *next* delta that fires, so
        incremental subscribers stay eventually consistent.
        """
        return self._write([], (triple,), notify).added[0]

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples as one batch (single notification)."""
        return len(self._write([], triples).added)

    def remove_source(self, source: str) -> int:
        """Delete every triple published from ``source``.

        Resolved through the source hash index; one delta notification
        when anything was removed.
        """
        return len(self.replace_source(source, ()).removed)

    def remove(self, subject: str, predicate: str, obj: object) -> int:
        """Delete matching (s, p, o) triples regardless of source."""
        ids = self._by_pair.get((subject, predicate), ())
        doomed = [row for row in zip(ids, map(self.engine.get, ids)) if row[1][2] == obj]
        return len(self._write(doomed, ()).removed)

    def replace_source(self, source: str, triples: Iterable[Triple]) -> Delta:
        """Atomically replace everything published from ``source``.

        Re-publishing a page is this single operation — in-place
        annotation means the page *is* the data.  The new extraction is
        diffed against the stored triples (multiset semantics over
        (s, p, o)): unchanged triples stay in place with their original
        timestamps, and at most **one** delta notification fires,
        carrying only the actual difference.  Re-publishing an
        unchanged page is a no-op (empty delta, no notification).

        On a durable engine the whole diff is a single atomic WAL
        record whose logical payload is exactly this delta.
        """
        fresh = [Triple(t.subject, t.predicate, t.object, source) for t in triples]
        new_counts = Counter(t.spo() for t in fresh)
        kept: Counter = Counter()
        doomed: list[tuple[int, tuple]] = []
        for row_id in self._by_source.get(source, ()):
            raw = self.engine.get(row_id)
            spo = raw[:3]
            if kept[spo] < new_counts[spo]:
                kept[spo] += 1  # earliest copies survive, timestamps intact
            else:
                doomed.append((row_id, raw))
        added: list[Triple] = []
        for triple in fresh:
            spo = triple.spo()
            if kept[spo] > 0:
                kept[spo] -= 1
            else:
                added.append(triple)
        return self._write(doomed, added)

    # -- access -------------------------------------------------------------
    def match(
        self,
        subject: str | None = None,
        predicate: str | None = None,
        obj: object | None = None,
        source: str | None = None,
    ) -> Iterator[Triple]:
        """All triples matching the given constants (None = wildcard).

        Served from the hash-index bucket of the most-bound constant
        combination; remaining constants are checked positionally on the
        raw row tuples.  Triples come out in ascending insertion
        (timestamp) order — identical to a full-table scan's order.
        """
        if subject is not None and predicate is not None:
            ids = self._by_pair.get((subject, predicate), ())
        elif subject is not None:
            ids = self._by_subject.get(subject, ())
        elif predicate is not None:
            ids = self._by_predicate.get(predicate, ())
        elif source is not None:
            ids = self._by_source.get(source, ())
        else:
            ids = None
        if ids is None:
            raws: Iterable[tuple] = (raw for _row_id, raw in self.engine.scan())
        else:
            # Copy the ids, so a caller may mutate the store mid-iteration.
            raws = (raw for raw in map(self.engine.get, tuple(ids)) if raw is not None)
        for raw in raws:
            if subject is not None and raw[0] != subject:
                continue
            if predicate is not None and raw[1] != predicate:
                continue
            if obj is not None and raw[2] != obj:
                continue
            if source is not None and raw[3] != source:
                continue
            yield Triple(*raw)

    def subjects(self, predicate: str | None = None, obj: object | None = None) -> set[str]:
        """Distinct subjects, optionally filtered by predicate/object."""
        return {triple.subject for triple in self.match(None, predicate, obj)}

    def objects(self, subject: str, predicate: str) -> list[object]:
        """All object values for (subject, predicate)."""
        return [triple.object for triple in self.match(subject, predicate)]

    def value(self, subject: str, predicate: str) -> object | None:
        """One object value for (subject, predicate), or None."""
        for triple in self.match(subject, predicate):
            return triple.object
        return None

    def predicates(self) -> set[str]:
        """Distinct predicate names in the store."""
        return set(self._by_predicate)

    def sources(self) -> set[str]:
        """Distinct source URLs in the store."""
        return set(self._by_source)

    def all_triples(self) -> list[Triple]:
        """Every triple (mostly for tests and statistics)."""
        return list(self.match())

    # -- durability ---------------------------------------------------------
    def checkpoint(self) -> None:
        """Snapshot the backing engine (no-op on volatile engines)."""
        self.engine.checkpoint()

    def close(self) -> None:
        """Release the backing engine's file handles."""
        self.engine.close()

    def __len__(self) -> int:
        return len(self.engine)

    def __contains__(self, spo: tuple) -> bool:
        subject, predicate, obj = spo
        return next(self.match(subject, predicate, obj), None) is not None
