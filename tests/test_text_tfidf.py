"""Tests for TF/IDF vectorization and the cosine keyword index."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import CosineIndex, TfIdfVectorizer, cosine_similarity
from repro.text.synonyms import SynonymTable, default_synonyms, TranslationTable
from repro.text.synonyms import italian_english_dictionary


class TestCosine:
    def test_parallel_vectors(self):
        assert cosine_similarity({"a": 1.0}, {"a": 3.0}) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_empty(self):
        assert cosine_similarity({}, {"a": 1.0}) == 0.0


class TestTfIdf:
    def test_rare_terms_weigh_more(self):
        vectorizer = TfIdfVectorizer(stem=False)
        vectorizer.fit(["course course title", "course name", "course room"])
        assert vectorizer.idf("title") > vectorizer.idf("course")

    def test_similarity_prefers_overlap(self):
        vectorizer = TfIdfVectorizer()
        vectorizer.fit(["ancient history course", "database systems course"])
        sim_history = vectorizer.similarity(
            "history of ancient rome", "ancient history course"
        )
        sim_db = vectorizer.similarity(
            "history of ancient rome", "database systems course"
        )
        assert sim_history > sim_db

    def test_stemming_conflates(self):
        vectorizer = TfIdfVectorizer(stem=True)
        vectorizer.fit(["courses"])
        assert vectorizer.similarity("course", "courses") == pytest.approx(1.0)

    def test_token_sequence_input(self):
        vectorizer = TfIdfVectorizer(stem=False)
        vectorizer.fit([["alpha", "beta"], ["alpha"]])
        assert "beta" in vectorizer.vocabulary

    def test_analysis_stands_in_for_its_document(self):
        vectorizer = TfIdfVectorizer()
        texts = ["Courses on ancient history", ["History", "courses", "history"]]
        analysed = [vectorizer.analyze(text) for text in texts]
        assert list(analysed[1].items()) == [("histori", 2), ("cours", 1)]
        idf = dict(vectorizer.fit(texts)._idf)
        assert vectorizer.fit(analysed)._idf == idf
        for text, counts in zip(texts, analysed):
            assert list(vectorizer.transform(counts).items()) == list(
                vectorizer.transform(text).items()
            )

    @pytest.mark.parametrize("stem", [True, False])
    def test_idf_normalises_its_term_like_a_document(self, stem):
        vectorizer = TfIdfVectorizer(stem=stem).fit(["Alice Bob", "alice carol", "dave"])
        assert vectorizer.idf("Alice") == vectorizer.idf("alice")
        assert [vectorizer.idf("Alice")] == list(vectorizer.transform("Alice").values())
        assert vectorizer.idf("Alice") < vectorizer.idf("Zed")  # the unseen-term default


class TestCosineIndex:
    def test_search_ranks_relevant_first(self):
        index = CosineIndex()
        index.add("hist", "introductory ancient history course at berkeley")
        index.add("db", "graduate database systems seminar")
        index.add("ml", "machine learning for text corpora")
        results = index.search("ancient history")
        assert results[0][0] == "hist"

    def test_remove(self):
        index = CosineIndex()
        index.add("a", "alpha beta")
        index.remove("a")
        assert index.search("alpha") == []

    def test_limit(self):
        index = CosineIndex()
        for i in range(10):
            index.add(f"d{i}", "common words everywhere")
        assert len(index.search("common", limit=3)) == 3

    def test_search_after_the_last_document_left(self):
        index = CosineIndex()
        index.add("a", "hello world")
        assert [doc_id for doc_id, _score in index.search("hello")] == ["a"]
        index.remove("a")
        assert index.search("hello") == [] and len(index) == 0
        index.add("a", "goodbye world")  # the same id comes back with other text
        assert index.search("hello") == []
        assert [doc_id for doc_id, _score in index.search("goodbye")] == ["a"]

    def test_an_edit_costs_one_analysis_one_fit_and_only_the_moved_weights(self, monkeypatch):
        calls = {"analyze": [], "fit": 0, "weigh": 0}
        analyze, fit, transform = (
            TfIdfVectorizer.analyze, TfIdfVectorizer.fit, TfIdfVectorizer.transform
        )

        def counted_analyze(self, text):
            calls["analyze"].append(text)
            return analyze(self, text)

        def counted_fit(self, documents):
            calls["fit"] += 1
            return fit(self, documents)

        def counted_transform(self, text):
            calls["weigh"] += isinstance(text, Counter)
            return transform(self, text)

        monkeypatch.setattr(TfIdfVectorizer, "analyze", counted_analyze)
        monkeypatch.setattr(TfIdfVectorizer, "fit", counted_fit)
        monkeypatch.setattr(TfIdfVectorizer, "transform", counted_transform)

        def work(query):
            calls.update(analyze=[], fit=0, weigh=0)
            hits = index.search(query, limit=1000)
            documents = [text for text in calls["analyze"] if text != query]
            return hits, documents, calls["fit"], calls["weigh"]

        index = CosineIndex()
        for i in range(200):
            index.add(f"d{i:03}", f"course number{i} topic{i % 10}")
        _hits, documents, fits, weighed = work("course")
        assert (len(documents), fits, weighed) == (200, 1, 200)

        # N changes: every weight is stale, but only the candidates are redone.
        index.add("new", "seminar topic3")
        hits, documents, fits, weighed = work("topic3")
        assert (documents, fits) == (["seminar topic3"], 1)
        assert len(hits) == weighed == 21
        assert work("topic3") == (hits, [], 0, 0)

        # N stays: df moved for topic0 (20 -> 19) and topic1 (20 -> 21) only.
        work("course")
        index.add("d000", "course number0 topic1")
        hits, documents, fits, weighed = work("course")
        assert (documents, fits) == (["course number0 topic1"], 1)
        assert (len(hits), weighed) == (200, 19 + 21)
        assert work("course") == (hits, [], 0, 0)


WORDS = ["course", "Courses", "history", "historical", "data", "database", "Alice", "x1"]
DOCUMENT = st.lists(st.sampled_from(WORDS), max_size=6).flatmap(
    lambda words: st.sampled_from([words, " ".join(words)])  # pre-tokenised or a string
)
DOC_ID = st.sampled_from(["d0", "d1", "d2", "d3", "d4"])
EDIT = st.one_of(
    st.tuples(st.just("add"), DOC_ID, DOCUMENT),
    st.tuples(st.just("remove"), DOC_ID),
    st.tuples(st.just("search"), st.lists(st.sampled_from(WORDS), min_size=1, max_size=3)),
)


def search_from_scratch(texts, query, limit, stem):
    """Nothing cached, nothing pre-analysed: refit on the raw texts, score them all."""
    vectorizer = TfIdfVectorizer(stem=stem).fit(texts.values())
    query_vector = vectorizer.transform(query)
    scored = [
        (doc_id, cosine_similarity(query_vector, vectorizer.transform(text)))
        for doc_id, text in texts.items()
    ]
    scored = [(doc_id, score) for doc_id, score in scored if score > 0.0]
    return sorted(scored, key=lambda item: (-item[1], item[0]))[:limit]


@settings(max_examples=300, deadline=None)
@given(st.lists(EDIT, max_size=25), st.booleans(), st.sampled_from([1, 3, 10]))
def test_edited_index_searches_exactly_like_a_fresh_fit(edits, stem, limit):
    index, texts = CosineIndex(stem=stem), {}
    for edit in edits + [("search", ["course", "history"])]:
        if edit[0] == "add":
            texts[edit[1]] = edit[2]
            index.add(edit[1], edit[2])
        elif edit[0] == "remove":
            texts.pop(edit[1], None)
            index.remove(edit[1])
        else:
            query = " ".join(edit[1])
            # == on the floats: the cached path may not round differently
            assert index.search(query, limit) == search_from_scratch(texts, query, limit, stem)
            assert len(index) == len(texts)


class TestSynonyms:
    def test_classes_merge(self):
        table = SynonymTable([["a", "b"], ["b", "c"]])
        assert table.are_synonyms("a", "c")

    def test_unknown_terms(self):
        table = SynonymTable()
        assert not table.are_synonyms("x", "y")
        assert table.are_synonyms("x", "X")

    def test_default_domain(self):
        table = default_synonyms()
        assert table.are_synonyms("course", "class")
        assert table.are_synonyms("instructor", "professor")
        assert not table.are_synonyms("course", "instructor")

    def test_classes_listing(self):
        table = SynonymTable([["q", "r"]])
        assert {"q", "r"} in table.classes()


class TestTranslation:
    def test_roundtrip(self):
        table = TranslationTable([("corso", "course")])
        assert table.translate("corso") == "course"
        assert table.translate_back("course") == "corso"

    def test_unknown_passthrough(self):
        table = TranslationTable()
        assert table.translate("anything") == "anything"

    def test_italian_dictionary(self):
        dictionary = italian_english_dictionary()
        assert dictionary.translate("docente") == "instructor"
        synonyms = dictionary.as_synonyms()
        assert synonyms.are_synonyms("corso", "course")
