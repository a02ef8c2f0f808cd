"""Tests for string similarity measures, including metric properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text import (
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_ratio,
    ngram_similarity,
    ngrams,
    token_set_similarity,
)

words = st.text(alphabet="abcdefghij", min_size=0, max_size=12)


class TestLevenshtein:
    def test_known_distances(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("course", "courses") == 1
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "abc") == 0

    @given(words, words)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(words, words)
    def test_identity(self, a, b):
        assert (levenshtein(a, b) == 0) == (a == b)

    @given(words, words, words)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(words, words)
    def test_bounded_by_longer(self, a, b):
        assert levenshtein(a, b) <= max(len(a), len(b))


class TestRatios:
    @given(words, words)
    def test_levenshtein_ratio_range(self, a, b):
        assert 0.0 <= levenshtein_ratio(a, b) <= 1.0

    def test_ratio_of_equal(self):
        assert levenshtein_ratio("phone", "phone") == 1.0


class TestJaro:
    def test_classic_example(self):
        assert jaro("martha", "marhta") == pytest.approx(0.944, abs=1e-3)

    def test_winkler_boosts_prefix(self):
        assert jaro_winkler("instructor", "instructors") >= jaro(
            "instructor", "instructors"
        )

    @given(words, words)
    def test_jaro_symmetric(self, a, b):
        assert jaro(a, b) == pytest.approx(jaro(b, a))

    @given(words, words)
    def test_jaro_winkler_range(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0 + 1e-9

    @given(words)
    def test_self_similarity(self, a):
        assert jaro(a, a) == 1.0


class TestNgrams:
    def test_padding(self):
        assert ngrams("ab", 3) == ["##a", "#ab", "ab#", "b##"]

    def test_empty(self):
        assert ngrams("", 3, pad=False) == []

    @given(words, words)
    def test_ngram_similarity_range(self, a, b):
        assert 0.0 <= ngram_similarity(a, b) <= 1.0

    @given(words)
    def test_ngram_self(self, a):
        assert ngram_similarity(a, a) == 1.0


class TestTokenAndSetSims:
    def test_jaccard(self):
        assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
        assert jaccard(set(), set()) == 1.0

    def test_token_set_handles_separators(self):
        assert token_set_similarity("office_hours", "OfficeHours") == 1.0

    def test_token_set_abbreviations(self):
        assert token_set_similarity("dept_name", "department-name") == 1.0
