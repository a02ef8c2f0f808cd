"""String similarity measures used by the name-based matchers.

All similarity functions return a float in ``[0.0, 1.0]`` where 1.0 means
identical; distance functions return non-negative integers.  These are
the standard measures from the schema-matching literature surveyed by
Rahm & Bernstein (VLDB J. 2001), which the paper cites as [40].
"""

from __future__ import annotations

from repro.text.tokenize import tokenize_identifier


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert / delete / substitute, unit cost).

    >>> levenshtein("course", "courses")
    1
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def levenshtein_ratio(a: str, b: str) -> float:
    """Edit distance normalized to a similarity in ``[0, 1]``."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def jaro(a: str, b: str) -> float:
    """Jaro similarity (matching characters within a sliding window).

    Implemented with per-character position lists: the classic nested
    scan re-walks the whole window for every character of ``a``
    (O(len_a * window)); here each character jumps straight to its next
    unmatched occurrence in ``b`` via a per-character cursor, which is
    valid because the window's lower bound only ever moves right.  The
    greedy match/transposition counts — and therefore the returned
    float — are identical to the classic formulation.
    """
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if not len_a or not len_b:
        return 0.0
    window = max(len_a, len_b) // 2 - 1
    window = max(window, 0)
    positions: dict[str, list[int]] = {}
    for j, ch in enumerate(b):
        positions.setdefault(ch, []).append(j)
    cursors = dict.fromkeys(positions, 0)
    matched_a: list[str] = []  # a's matched characters, in order
    matched_b: list[int] = []  # b's matched positions (any order)
    for i, ch in enumerate(a):
        spots = positions.get(ch)
        if spots is None:
            continue
        cursor = cursors[ch]
        lo = i - window
        while cursor < len(spots) and spots[cursor] < lo:
            cursor += 1
        cursors[ch] = cursor
        if cursor < len(spots) and spots[cursor] <= i + window:
            matched_a.append(ch)
            matched_b.append(spots[cursor])
            cursors[ch] = cursor + 1
    matches = len(matched_a)
    if matches == 0:
        return 0.0
    transpositions = 0
    for ch, j in zip(matched_a, sorted(matched_b)):
        if ch != b[j]:
            transpositions += 1
    transpositions //= 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro-Winkler: Jaro boosted by the length of the common prefix.

    >>> jaro_winkler("instructor", "instructors") > jaro("instructor", "instructors")
    True
    """
    base = jaro(a, b)
    prefix = 0
    for ch_a, ch_b in zip(a, b):
        if ch_a != ch_b or prefix >= max_prefix:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def ngrams(text: str, n: int = 3, pad: bool = True) -> list[str]:
    """Character n-grams of ``text``; padded with ``#`` at both ends.

    >>> ngrams("ab", 3)
    ['##a', '#ab', 'ab#', 'b##']
    """
    if pad:
        text = "#" * (n - 1) + text + "#" * (n - 1)
    if len(text) < n:
        return [text] if text else []
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def ngram_similarity(a: str, b: str, n: int = 3) -> float:
    """Dice coefficient over character n-gram multisets."""
    grams_a = ngrams(a, n)
    grams_b = ngrams(b, n)
    if not grams_a and not grams_b:
        return 1.0
    if not grams_a or not grams_b:
        return 0.0
    counts: dict[str, int] = {}
    for gram in grams_a:
        counts[gram] = counts.get(gram, 0) + 1
    overlap = 0
    for gram in grams_b:
        if counts.get(gram, 0) > 0:
            counts[gram] -= 1
            overlap += 1
    return 2.0 * overlap / (len(grams_a) + len(grams_b))


def jaccard(set_a: set | frozenset, set_b: set | frozenset) -> float:
    """Jaccard coefficient of two sets."""
    if not set_a and not set_b:
        return 1.0
    union = len(set_a | set_b)
    if union == 0:
        return 1.0
    return len(set_a & set_b) / union


def token_set_similarity(a: str, b: str) -> float:
    """Jaccard over identifier tokens: robust to word order and separators.

    >>> token_set_similarity("office_hours", "hours-of-office") > 0.5
    True
    """
    tokens_a = set(tokenize_identifier(a, expand_abbreviations=True))
    tokens_b = set(tokenize_identifier(b, expand_abbreviations=True))
    tokens_a.discard("of")
    tokens_b.discard("of")
    return jaccard(tokens_a, tokens_b)
