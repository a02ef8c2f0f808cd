"""Inverted index: normalized terms -> posting lists.

The paper's premise is a *large* corpus of structures; every corpus
statistic that answers "which documents mention this term?" by scanning
the whole collection stops working past toy scale.  The
:class:`InvertedIndex` is the classic IR answer adapted to the S-WORLD:
posting lists keyed by normalized term, where a "document" may be a
schema, a relation signature, or another term's co-occurrence profile.

The index is maintained **incrementally**: adding (or replacing) a
document touches only that document's own postings, never the rest of
the index, so corpus growth is O(document size) instead of a rebuild.
``epoch`` increments on every mutation and is the invalidation token
for query caches layered above (:mod:`repro.search.cache`).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

DocId = Hashable


class InvertedIndex:
    """Term -> {document: weight} postings with incremental maintenance."""

    def __init__(self) -> None:  # noqa: D107
        self._postings: dict[Hashable, dict[DocId, float]] = {}
        self._documents: dict[DocId, tuple[Hashable, ...]] = {}
        self.epoch = 0

    # -- maintenance ----------------------------------------------------------
    def add(self, doc_id: DocId, terms: Iterable[Hashable] | Mapping[Hashable, float]) -> None:
        """Add or replace one document's postings.

        ``terms`` is either a bag of terms (weight 1.0 each) or a
        term -> weight mapping.  Replacement removes postings for terms
        the new version no longer contains; nothing else is touched.
        """
        if isinstance(terms, Mapping):
            weighted = dict(terms)
        else:
            weighted = {term: 1.0 for term in terms}
        stale = self._documents.get(doc_id)
        if stale is not None:
            for term in stale:
                if term not in weighted:
                    row = self._postings.get(term)
                    if row is not None:
                        row.pop(doc_id, None)
                        if not row:
                            del self._postings[term]
        for term, weight in weighted.items():
            self._postings.setdefault(term, {})[doc_id] = weight
        self._documents[doc_id] = tuple(weighted)
        self.epoch += 1

    def remove(self, doc_id: DocId) -> None:
        """Drop one document from every posting list it appears in."""
        terms = self._documents.pop(doc_id, None)
        if terms is None:
            return
        for term in terms:
            row = self._postings.get(term)
            if row is not None:
                row.pop(doc_id, None)
                if not row:
                    del self._postings[term]
        self.epoch += 1

    # -- queries --------------------------------------------------------------
    def postings(self, term: Hashable) -> Mapping[DocId, float]:
        """The posting list of ``term`` (empty mapping if unseen)."""
        return self._postings.get(term, {})

    def candidates(self, terms: Iterable[Hashable]) -> set:
        """Documents sharing at least one posting with ``terms``.

        This is the candidate-pruning primitive: for non-negative
        weights, any document with a nonzero dot product against a
        query over ``terms`` is in this set, so restricting scoring to
        it is exact.
        """
        found: set = set()
        for term in terms:
            row = self._postings.get(term)
            if row:
                found.update(row)
        return found

    def terms(self) -> set:
        """Every term with a non-empty posting list."""
        return set(self._postings)

    def __contains__(self, doc_id: DocId) -> bool:
        return doc_id in self._documents

    def __len__(self) -> int:
        """Number of indexed documents."""
        return len(self._documents)
