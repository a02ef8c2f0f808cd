"""Text and IR utilities: the U-WORLD toolkit the paper adapts to structures.

The corpus tools of Section 4 of the paper rely on classic information
retrieval machinery: tokenization, stemming, synonym tables, TF/IDF and
the string similarities the name-based matchers score with (edit
distance, Jaro-Winkler, character n-grams, token Jaccard).  This package
implements all of it from scratch.
"""

from repro.text.tokenize import normalize_term, tokenize, tokenize_identifier
from repro.text.stem import porter_stem, stem_tokens
from repro.text.synonyms import SynonymTable, TranslationTable, default_synonyms
from repro.text.similarity import (
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_ratio,
    ngram_similarity,
    ngrams,
    token_set_similarity,
)
from repro.text.tfidf import CosineIndex, TfIdfVectorizer, cosine_similarity

__all__ = [
    "CosineIndex",
    "SynonymTable",
    "TfIdfVectorizer",
    "TranslationTable",
    "cosine_similarity",
    "default_synonyms",
    "jaccard",
    "jaro",
    "jaro_winkler",
    "levenshtein",
    "levenshtein_ratio",
    "ngram_similarity",
    "ngrams",
    "normalize_term",
    "porter_stem",
    "stem_tokens",
    "token_set_similarity",
    "tokenize",
    "tokenize_identifier",
]
