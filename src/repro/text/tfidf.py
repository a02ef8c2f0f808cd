"""TF/IDF vectors and cosine similarity.

Section 4 of the paper explicitly holds up TF/IDF [43] as the U-WORLD
technique to adapt: "a document is considered relevant if the number of
occurrences of the keyword in the document is statistically significant
w.r.t. the number of appearances in an average document".  The corpus
statistics (:mod:`repro.corpus.stats`) reuse this vectorizer, treating a
schema as a "document" of its element-name tokens.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence

from repro.text.stem import porter_stem
from repro.text.tokenize import tokenize

Vector = dict[str, float]


def cosine_similarity(vec_a: Vector, vec_b: Vector) -> float:
    """Cosine of the angle between two sparse vectors.

    >>> cosine_similarity({"a": 1.0}, {"a": 2.0})
    1.0
    >>> cosine_similarity({"a": 1.0}, {"b": 1.0})
    0.0
    """
    if not vec_a or not vec_b:
        return 0.0
    if len(vec_b) < len(vec_a):
        vec_a, vec_b = vec_b, vec_a
    dot = sum(weight * vec_b.get(term, 0.0) for term, weight in vec_a.items())
    norm_a = math.sqrt(sum(weight * weight for weight in vec_a.values()))
    norm_b = math.sqrt(sum(weight * weight for weight in vec_b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def _norm(vector: Vector) -> float:
    # Summed in the vector's iteration order, as cosine_similarity does.
    return math.sqrt(sum(weight * weight for weight in vector.values()))


class TfIdfVectorizer:
    """Fit IDF weights on a corpus of documents, then vectorize text.

    ``tf`` uses log damping (``1 + log(count)``); ``idf`` is the smoothed
    ``log((1 + N) / (1 + df)) + 1`` so unseen terms still get weight.
    Wherever a document is expected, the ``Counter`` that :meth:`analyze`
    returned for it is accepted too and skips tokenizing and stemming.
    """

    def __init__(self, stem: bool = True, lowercase: bool = True):  # noqa: D107
        self.stem = stem
        self.lowercase = lowercase
        self._idf: dict[str, float] = {}
        self._documents = 0

    # -- tokenization -------------------------------------------------
    def analyze(self, text: str | Sequence[str]) -> Counter[str]:
        """Term counts of one document, terms in first-occurrence order."""
        if isinstance(text, str):
            tokens = tokenize(text if not self.lowercase else text.lower())
        else:
            tokens = [token.lower() if self.lowercase else token for token in text]
        if self.stem:
            tokens = [porter_stem(token) for token in tokens]
        return Counter(tokens)

    def _analysed(self, document: str | Sequence[str] | Counter[str]) -> Counter[str]:
        return document if isinstance(document, Counter) else self.analyze(document)

    def _unseen_idf(self) -> float:
        return math.log(1 + self._documents) + 1.0 if self._documents else 1.0

    # -- fitting ------------------------------------------------------
    def fit(self, documents: Iterable[str | Sequence[str] | Counter[str]]) -> "TfIdfVectorizer":
        """Compute document frequencies over ``documents``."""
        document_frequency: Counter[str] = Counter()
        count = 0
        for document in documents:
            count += 1
            document_frequency.update(self._analysed(document).keys())
        self._documents = count
        self._idf = {
            term: math.log((1 + count) / (1 + df)) + 1.0
            for term, df in document_frequency.items()
        }
        return self

    @property
    def vocabulary(self) -> set[str]:
        """Terms seen during :meth:`fit`."""
        return set(self._idf)

    def idf(self, term: str) -> float:
        """IDF weight of ``term`` (default weight if never seen)."""
        (term,) = self.analyze([term])  # normalised exactly as a document's tokens are
        return self._idf.get(term, self._unseen_idf())

    # -- transformation ------------------------------------------------
    def transform(self, text: str | Sequence[str] | Counter[str]) -> Vector:
        """TF/IDF vector of one document."""
        vector: Vector = {}
        for term, count in self._analysed(text).items():
            tf = 1.0 + math.log(count)
            idf = self._idf.get(term)
            if idf is None:
                idf = self._unseen_idf()
            vector[term] = tf * idf
        return vector

    def similarity(self, text_a: str | Sequence[str], text_b: str | Sequence[str]) -> float:
        """Cosine similarity between two documents under the fitted IDF."""
        return cosine_similarity(self.transform(text_a), self.transform(text_b))


class CosineIndex:
    """A tiny in-memory inverted index with TF/IDF ranking.

    This is the U-WORLD keyword-search baseline used by the examples and
    by MANGROVE's annotation-enabled search application.

    Cached per document: its analysis (term counts), its posting rows and
    its ``(vector, norm)`` under the current IDF table.  ``add``/``remove``
    only store the text and mark the id dirty; the next :meth:`search`
    re-analyses the dirty documents alone, recounts document frequencies
    over the cached analyses, and drops the cached vectors of exactly the
    documents holding a term whose IDF moved.  Results are bitwise those
    of an index freshly built from the same texts.
    """

    def __init__(self, stem: bool = True):  # noqa: D107
        self._vectorizer = TfIdfVectorizer(stem=stem)
        self._raw_documents: dict[str, str | Sequence[str]] = {}
        self._dirty: set[str] = set()
        self._counts: dict[str, Counter[str]] = {}
        self._postings: dict[str, set[str]] = {}
        self._weighted: dict[str, tuple[Vector, float]] = {}

    def add(self, doc_id: str, text: str | Sequence[str]) -> None:
        """Add or replace a document; the next search absorbs it."""
        self._raw_documents[doc_id] = text
        self._dirty.add(doc_id)

    def remove(self, doc_id: str) -> None:
        """Drop a document from the index."""
        if self._raw_documents.pop(doc_id, None) is not None:
            self._dirty.add(doc_id)

    def _absorb_dirty(self) -> None:
        if not self._dirty:
            return
        before = len(self._counts)
        for doc_id in self._dirty:
            for term in self._counts.pop(doc_id, ()):
                self._postings[term].discard(doc_id)
            self._weighted.pop(doc_id, None)
            if doc_id in self._raw_documents:
                counts = self._vectorizer.analyze(self._raw_documents[doc_id])
                self._counts[doc_id] = counts
                for term in counts:
                    self._postings.setdefault(term, set()).add(doc_id)
        self._dirty.clear()
        old_idf = self._vectorizer._idf
        self._vectorizer.fit(self._counts.values())
        new_idf = self._vectorizer._idf
        for term in old_idf.keys() - new_idf.keys():
            del self._postings[term]  # its last document left
        if len(self._counts) != before:
            self._weighted.clear()  # N is in every IDF
            return
        for term, idf in new_idf.items():
            if old_idf.get(term) != idf:
                for doc_id in self._postings[term]:
                    self._weighted.pop(doc_id, None)

    def _weigh(self, doc_id: str) -> tuple[Vector, float]:
        vector = self._vectorizer.transform(self._counts[doc_id])
        entry = self._weighted[doc_id] = (vector, _norm(vector))
        return entry

    def search(self, query: str, limit: int = 10) -> list[tuple[str, float]]:
        """Top ``limit`` documents by cosine similarity to ``query``."""
        self._absorb_dirty()
        query_vector = self._vectorizer.transform(query)
        query_norm = _norm(query_vector)
        candidates: set[str] = set()
        for term in query_vector:
            candidates.update(self._postings.get(term, ()))
        scored = []
        for doc_id in candidates:
            vector, norm = self._weighted.get(doc_id) or self._weigh(doc_id)
            # cosine_similarity's arithmetic: the shorter vector drives the dot.
            short, long = (
                (vector, query_vector) if len(vector) < len(query_vector) else (query_vector, vector)
            )
            dot = sum(weight * long.get(term, 0.0) for term, weight in short.items())
            score = dot / (query_norm * norm)
            if score > 0.0:
                scored.append((doc_id, score))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:limit]

    def __len__(self) -> int:
        return len(self._raw_documents)
