"""Character n-gram profiles and the two word-pair similarity measures.

``dice`` is the set-overlap coefficient 2C/(A+B) over distinct n-gram
sets.  ``median_offset_distance`` is the alternative measure fed to the
median-similarity clustering mode: the median absolute difference of
first-occurrence positions of the characters two words share, negated so
that larger is always more similar, with 200 as the "very far" sentinel.
It is the scalar definition: the affinity-propagation backend builds its
median matrix with equivalent array code (see ``ap``), and the tests
compare every entry of that matrix with this function.

``gram_index`` is the array form of a whole lexicon's profiles that both
clustering backends read: integer gram ids, profile sizes and posting
lists, built once per run without keeping a set or string per word.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from statistics import median

import numpy as np

from .errors import ConfigError

BIGRAM = "2"
TRIGRAM = "3"
COMBINED = "2+3"
GRAM_ORDERS = (BIGRAM, TRIGRAM, COMBINED)
_GRAM_SIZES = {BIGRAM: (2,), TRIGRAM: (3,), COMBINED: (2, 3)}

# distance assigned when two words share no character, or disagree by more
# than the shorter word's length
FAR_DISTANCE = 200.0


@dataclass(frozen=True)
class NGramProfile:
    word: str
    grams: frozenset[str]
    order: str


def extract_ngrams(word: str, n: int) -> frozenset[str]:
    """All distinct contiguous n-code-point substrings of ``word``.

    Empty for words shorter than ``n``.  Only n = 2 and n = 3 are defined.
    """
    if n not in (2, 3):
        raise ConfigError(f"gram size must be 2 or 3, got {n}")
    return frozenset(word[i : i + n] for i in range(len(word) - n + 1))


def ngram_profile(word: str, order: str = BIGRAM) -> NGramProfile:
    if order == BIGRAM:
        grams = extract_ngrams(word, 2)
    elif order == TRIGRAM:
        grams = extract_ngrams(word, 3)
    elif order == COMBINED:
        grams = extract_ngrams(word, 2) | extract_ngrams(word, 3)
    else:
        raise ConfigError(f"gram order must be one of {GRAM_ORDERS}, got {order!r}")
    return NGramProfile(word=word, grams=grams, order=order)


def combined_profile(word: str) -> NGramProfile:
    """Bigrams and trigrams pooled into one profile."""
    return ngram_profile(word, COMBINED)


def dice(p1: NGramProfile, p2: NGramProfile) -> float:
    """2C/(A+B) over distinct grams; 0.0 when both profiles are empty."""
    if p1.order != p2.order:
        raise ConfigError(f"cannot compare profiles of order {p1.order!r} and {p2.order!r}")
    denominator = len(p1.grams) + len(p2.grams)
    if denominator == 0:
        return 0.0
    return 2 * len(p1.grams & p2.grams) / denominator


@dataclass(frozen=True)
class GramIndex:
    """Distinct-gram profiles of a word list in two compressed-sparse-row forms.

    Gram ids are numbered in first-seen order; the gram strings themselves
    are not kept.  ``grams[word_starts[i]:word_starts[i + 1]]`` are the ids
    of word i's grams and ``sizes[i]`` their count, the A of 2C/(A+B).
    ``postings[gram_starts[g]:gram_starts[g + 1]]`` are the indices of the
    words holding gram g, ascending.
    """

    sizes: np.ndarray
    word_starts: np.ndarray
    grams: np.ndarray
    gram_starts: np.ndarray
    postings: np.ndarray

    def posting_lists(self) -> list[np.ndarray]:
        """One view into ``postings`` per gram id."""
        return np.split(self.postings, self.gram_starts[1:-1])


def gram_index(words, order: str = BIGRAM) -> GramIndex:
    """Index the distinct grams of ``words``, the same sets ``ngram_profile`` gives."""
    if order not in _GRAM_SIZES:
        raise ConfigError(f"gram order must be one of {GRAM_ORDERS}, got {order!r}")
    spans = _GRAM_SIZES[order]
    ids: dict[str, int] = {}
    grams = array("q")
    sizes = array("q")
    for word in words:
        profile = {word[i : i + n] for n in spans for i in range(len(word) - n + 1)}
        # the default is evaluated first, so a new gram gets the next id
        grams.extend([ids.setdefault(gram, len(ids)) for gram in profile])
        sizes.append(len(profile))
    gram_count = len(ids)
    del ids  # the gram strings are not needed past this point
    sizes = np.frombuffer(sizes, dtype=np.int64)
    grams = np.frombuffer(grams, dtype=np.int64)
    word_starts = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=word_starts[1:])
    gram_starts = np.zeros(gram_count + 1, dtype=np.intp)
    np.cumsum(np.bincount(grams, minlength=gram_count), out=gram_starts[1:])
    # a stable sort by gram id keeps each posting list in word order
    owners = np.repeat(np.arange(len(sizes)), sizes)
    postings = owners[np.argsort(grams, kind="stable")]
    return GramIndex(sizes, word_starts, grams, gram_starts, postings)


def median_offset_distance(w1: str, w2: str) -> float:
    """Negated median first-occurrence offset over shared characters.

    Returns a value in [-200, 0].  The sentinel -200 applies when the words
    share no character or when the median offset exceeds the shorter word's
    length.
    """
    shared = set(w1) & set(w2)
    if not shared:
        return -FAR_DISTANCE
    offsets = [abs(w1.index(ch) - w2.index(ch)) for ch in shared]
    distance = float(median(offsets))
    if distance > min(len(w1), len(w2)) or distance > FAR_DISTANCE:
        distance = FAR_DISTANCE
    return -distance
