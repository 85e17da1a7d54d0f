"""Character n-gram sets and dice similarity.

``gram_set`` defines a word's distinct grams for a gram order (bigrams,
trigrams, or both pooled), and ``dice_ratio`` is the one 2C/(A+B)
expression: the word-level ``dice``, the greedy join test and the
affinity-propagation coefficient matrix all call it.

``gram_index`` is the array form of a whole lexicon's gram sets that both
clustering backends read: integer gram ids, set sizes and posting lists,
built once per run without keeping a set or string per word.  numpy is
imported only inside the functions that use it, so the commands that
never cluster start without it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError

if TYPE_CHECKING:
    import numpy as np

BIGRAM = "2"
TRIGRAM = "3"
COMBINED = "2+3"
GRAM_ORDERS = (BIGRAM, TRIGRAM, COMBINED)
_GRAM_SIZES = {BIGRAM: (2,), TRIGRAM: (3,), COMBINED: (2, 3)}


def gram_set(word: str, order: str = BIGRAM) -> set[str]:
    """The distinct contiguous 2- and/or 3-code-point substrings of ``word``.

    Empty for words shorter than every gram size of ``order``.
    """
    spans = _GRAM_SIZES.get(order)
    if spans is None:
        raise ConfigError(f"gram order must be one of {GRAM_ORDERS}, got {order!r}")
    return {word[i : i + n] for n in spans for i in range(len(word) - n + 1)}


def dice_ratio(common, size_a, size_b):
    """2C/(A+B): the one dice expression, on scalars or numpy arrays alike."""
    return 2.0 * common / (size_a + size_b)


def dice(w1: str, w2: str, order: str = BIGRAM) -> float:
    """Dice over the two words' distinct grams; 0.0 when both sets are empty."""
    g1, g2 = gram_set(w1, order), gram_set(w2, order)
    if not g1 and not g2:
        return 0.0
    return dice_ratio(len(g1 & g2), len(g1), len(g2))


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
        import numpy as np

        return np.split(self.postings, self.gram_starts[1:-1])


def gram_index(words, order: str = BIGRAM) -> GramIndex:
    """Index the ``gram_set`` of every word in ``words``."""
    import numpy as np

    gram_set("", order)  # validates the order even when ``words`` is empty
    ids: dict[str, int] = {}
    grams = array("q")
    sizes = array("q")
    for word in words:
        profile = gram_set(word, order)
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
