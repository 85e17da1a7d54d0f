"""Character n-gram profiles and the two word-pair similarity measures.

``dice`` is the set-overlap coefficient 2C/(A+B) over distinct n-gram
sets.  ``median_offset_distance`` is the alternative measure fed to the
median-similarity clustering mode: the median absolute difference of
first-occurrence positions of the characters two words share, negated so
that larger is always more similar, with 200 as the "very far" sentinel.
It is the scalar definition: the affinity-propagation backend builds its
median matrix with equivalent array code (see ``ap``), and the tests
compare every entry of that matrix with this function.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

from .errors import ConfigError

BIGRAM = "2"
TRIGRAM = "3"
COMBINED = "2+3"
GRAM_ORDERS = (BIGRAM, TRIGRAM, COMBINED)

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
