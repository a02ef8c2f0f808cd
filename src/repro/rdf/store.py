"""Triple store backed by one relational table.

The "simple graph representation" of the paper: one ``triples`` table
with hash indexes on subject, predicate, object and the (subject,
predicate) pair — the relational analogue of SPO/POS/OSP index triples.

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
from repro.relational import ColumnType, Database
from repro.storage.records import encode_delta


class TripleStore:
    """Add/remove/match triples; provenance-aware deletion by source.

    ``engine`` plugs a :class:`~repro.storage.engine.StorageEngine`
    under the triples table: a :class:`~repro.storage.log.LogEngine`
    makes the store durable (each logical mutation — one ``add_all``,
    one ``replace_source`` — is exactly one WAL record whose logical
    payload is the same :class:`~repro.rdf.triples.Delta` the
    subscribers receive), a
    :class:`~repro.storage.engine.ShardedEngine` splits the triples
    across shards.  Constructing a store over a recovered engine
    re-attaches: indexes rebuild from the engine scan and the logical
    clock resumes past the largest recovered timestamp.
    """

    def __init__(self, name: str = "annotations", engine=None):  # noqa: D107
        self._db = Database(name)
        self._table = self._db.create_table(
            "triples",
            [
                ("subject", ColumnType.TEXT),
                ("predicate", ColumnType.TEXT),
                ("object", ColumnType.ANY),
                ("source", ColumnType.TEXT),
                ("ts", ColumnType.INT),
            ],
            engine=engine,
        )
        self._table.create_hash_index(("subject",))
        self._table.create_hash_index(("predicate",))
        self._table.create_hash_index(("subject", "predicate"))
        self._table.create_hash_index(("source",))
        self._index_s = self._table.hash_index_for({"subject"})
        self._index_p = self._table.hash_index_for({"predicate"})
        self._index_sp = self._table.hash_index_for({"subject", "predicate"})
        self._index_source = self._table.hash_index_for({"source"})
        # Resume the logical clock past any recovered rows (fresh
        # engines scan empty and leave it at zero).
        self._clock = max((raw[4] for raw in self._table.raw_scan()), default=0)
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
    def _insert_stamped(self, triple: Triple) -> Triple:
        """Stamp with the next logical timestamp and insert (no notify)."""
        self._clock += 1
        stamped = Triple(
            triple.subject, triple.predicate, triple.object, triple.source, self._clock
        )
        self._db.insert(
            "triples",
            (stamped.subject, stamped.predicate, stamped.object, stamped.source, stamped.timestamp),
        )
        return stamped

    def add(self, triple: Triple, notify: bool = True) -> Triple:
        """Insert one triple; assigns the logical timestamp.

        ``notify=False`` defers (not drops) the notification: the
        triple is folded into the *next* delta that fires, so
        incremental subscribers stay eventually consistent.
        """
        with self._table.engine.batch() as batch:
            stamped = self._insert_stamped(triple)
            if batch.wants_logical:
                batch.annotate("delta", encode_delta(Delta(added=(stamped,))))
        # Listeners fire only after the WAL record is committed, so a
        # crash never shows subscribers a change the log lost.
        if notify:
            self._notify(Delta(added=(stamped,)))
        else:
            self._pending_added.append(stamped)
        return stamped

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples as one batch (single notification)."""
        with self._table.engine.batch() as batch:
            stamped = tuple(self._insert_stamped(triple) for triple in triples)
            if stamped and batch.wants_logical:
                batch.annotate("delta", encode_delta(Delta(added=stamped)))
        if stamped:
            self._notify(Delta(added=stamped))
        return len(stamped)

    def remove_source(self, source: str) -> int:
        """Delete every triple published from ``source``.

        Resolved through the source hash index; one delta notification
        when anything was removed.
        """
        return len(self.replace_source(source, ()).removed)

    def remove(self, subject: str, predicate: str, obj: object) -> int:
        """Delete matching (s, p, o) triples regardless of source."""
        removed: list[Triple] = []
        with self._table.engine.batch() as batch:
            for row_id in sorted(self._index_sp.lookup((subject, predicate))):
                raw = self._table.raw_row(row_id)
                if raw is not None and raw[2] == obj:
                    self._table.delete_row(row_id)
                    removed.append(self._triple_of(raw))
            if removed and batch.wants_logical:
                batch.annotate("delta", encode_delta(Delta(removed=tuple(removed))))
        if removed:
            self._notify(Delta(removed=tuple(removed)))
        return len(removed)

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
        fresh = [
            Triple(t.subject, t.predicate, t.object, source) for t in triples
        ]
        new_counts = Counter(t.spo() for t in fresh)
        kept: Counter = Counter()
        removed: list[Triple] = []
        added: list[Triple] = []
        with self._table.engine.batch() as batch:
            for row_id in sorted(self._index_source.lookup((source,))):
                raw = self._table.raw_row(row_id)
                if raw is None:
                    continue
                spo = (raw[0], raw[1], raw[2])
                if kept[spo] < new_counts[spo]:
                    kept[spo] += 1  # earliest copies survive, timestamps intact
                else:
                    self._table.delete_row(row_id)
                    removed.append(self._triple_of(raw))
            for triple in fresh:
                spo = triple.spo()
                if kept[spo] > 0:
                    kept[spo] -= 1
                    continue
                added.append(self._insert_stamped(triple))
            delta = Delta(added=tuple(added), removed=tuple(removed))
            if delta and batch.wants_logical:
                batch.annotate("delta", encode_delta(delta))
        if delta:
            self._notify(delta)
        return delta

    # -- access -------------------------------------------------------------
    @staticmethod
    def _triple_of(raw: tuple) -> Triple:
        return Triple(str(raw[0]), str(raw[1]), raw[2], str(raw[3]), int(raw[4]))  # type: ignore[arg-type]

    def _candidate_ids(
        self, subject: str | None, predicate: str | None, source: str | None
    ) -> Iterable[int] | None:
        """Row ids from the narrowest applicable index bucket (sorted), or
        None when no constant is index-servable (full scan)."""
        if subject is not None and predicate is not None:
            return sorted(self._index_sp.lookup((subject, predicate)))
        if subject is not None:
            return sorted(self._index_s.lookup((subject,)))
        if predicate is not None:
            return sorted(self._index_p.lookup((predicate,)))
        if source is not None:
            return sorted(self._index_source.lookup((source,)))
        return None

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
        table = self._table
        candidates = self._candidate_ids(subject, predicate, source)
        if candidates is None:
            raws: Iterable[tuple] = table.raw_scan()
        else:
            raws = (
                raw
                for raw in (table.raw_row(row_id) for row_id in candidates)
                if raw is not None
            )
        for raw in raws:
            if subject is not None and raw[0] != subject:
                continue
            if predicate is not None and raw[1] != predicate:
                continue
            if obj is not None and raw[2] != obj:
                continue
            if source is not None and raw[3] != source:
                continue
            yield self._triple_of(raw)

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
        return {str(key[0]) for key in self._index_p.keys()}

    def sources(self) -> set[str]:
        """Distinct source URLs in the store."""
        return {str(key[0]) for key in self._index_source.keys()}

    def all_triples(self) -> list[Triple]:
        """Every triple (mostly for tests and statistics)."""
        return list(self.match())

    # -- durability ---------------------------------------------------------
    @property
    def engine(self):
        """The storage engine backing the triples table."""
        return self._table.engine

    def checkpoint(self) -> None:
        """Snapshot the backing engine (no-op on volatile engines)."""
        self._table.checkpoint()

    def close(self) -> None:
        """Release the backing engine's file handles."""
        self._table.close()

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, spo: tuple) -> bool:
        subject, predicate, obj = spo
        return next(self.match(subject, predicate, obj), None) is not None
