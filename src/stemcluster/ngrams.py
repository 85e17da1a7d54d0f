"""Character n-gram sets and dice similarity.

``gram_set`` defines a word's distinct grams for a gram order (bigrams,
trigrams, or both pooled), and ``dice_ratio`` is the one 2C/(A+B)
expression: the word-level ``dice``, the greedy join test and the
affinity-propagation coefficient matrix all call it.

``gram_index`` is the array form of a whole lexicon's gram sets that both
clustering backends read: integer gram ids, set sizes and posting lists.
It is built from one code-point array of the whole lexicon
(``code_points``, UTF-32 with lone surrogates passed through), with no
Python loop per word: each gram occurrence gets an integer key from its
code points, one stable sort by key groups the occurrences into posting
lists, and neighbours with equal keys and words are a word's repeats.
The tests pin it to ``gram_set`` through an independent oracle.  numpy
is imported only inside the functions that use it, so the commands that
never cluster start without it.
"""

from __future__ import annotations

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
# one past the largest code point.  A gram's key is the base-_BASE number of
# its code points; trigram keys start above every bigram key, so no key
# reaches _BASE**2 + _BASE**3 < 2**63, whatever the alphabet
_BASE = 0x110000
_OFFSETS = {2: 0, 3: _BASE**2}
# entries per step of the block-wise passes over an index's entries
_BLOCK = 1 << 15


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


def code_points(words) -> tuple[np.ndarray, np.ndarray]:
    """The words end to end as one uint32 code-point array, and their n + 1 bounds.

    Word i is ``codes[bounds[i]:bounds[i + 1]]``.  Lone surrogates pass
    through as their own code points, so each word keeps its ``len``.
    """
    import numpy as np

    codes = np.frombuffer("".join(words).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    bounds = np.zeros(len(words) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, words), dtype=np.intp, count=len(words)), out=bounds[1:])
    return codes, bounds


@dataclass(frozen=True)
class GramIndex:
    """Distinct-gram profiles of a word list in two compressed-sparse-row forms.

    Gram ids number the grams in key order (see ``gram_index``); the gram
    strings themselves are not kept.  ``grams[word_starts[i]:word_starts[i + 1]]``
    are the ids of word i's grams and ``sizes[i]`` their count, the A of
    2C/(A+B).  ``postings[gram_starts[g]:gram_starts[g + 1]]`` are the
    indices of the words holding gram g, ascending.
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
    """Index the ``gram_set`` of every word in ``words``, a sequence.

    Every gram occurrence is one entry: a key, the base-``_BASE`` number of
    its code points, and the word holding it.  Entries come in word order,
    so one stable sort by key lines each posting list up ascending and
    puts a word's repeated gram right after its first copy.

    The build holds three int64 arrays about as long as the entries, the
    key buffer, the entries and their sort order, and reuses them from
    step to step; the two it returns are compacted in place and shrunk.
    Large temporaries are subtracted from in place: numpy checks whether
    it may reuse a temporary operand of 256 KiB or more by walking the C
    stack, which maps about 0.6 MiB more of the shared libraries.
    """
    import numpy as np

    gram_set("", order)  # validates the order
    codes, bounds = code_points(words)
    n, length = len(bounds) - 1, codes.size
    lengths = np.diff(bounds)
    spans = _GRAM_SIZES[order]
    # entry p * width + s of ``buffer`` is the key of the spans[s]-gram
    # starting at code point p; the last size - 1 code points of each word
    # start none
    width = len(spans)
    buffer = np.zeros(length * width, dtype=np.int64)
    inside = np.ones(buffer.size, dtype=bool)
    counts = np.zeros(n, dtype=np.intp)
    for column, size in enumerate(spans):
        stop = max(length - size + 1, 0)
        key = buffer[column :: width][:stop]
        key[:] = codes[:stop]
        for shift in range(1, size):
            key *= _BASE
            key += codes[shift : shift + stop]
        key += _OFFSETS[size]
        for back in range(1, size):
            ends = bounds[1:][lengths >= back]
            ends -= back
            inside[column::width][ends] = False
        counts += np.maximum(lengths - (size - 1), 0)
    del codes, lengths, key
    # code point order is word order
    entries = buffer[inside]
    del inside
    by_key = np.argsort(entries, kind="stable")
    total = entries.size
    # ``buffer`` takes the entries' sorted keys, then their sorted owners
    ordered = buffer[:total]
    np.take(entries, by_key, out=ordered, mode="clip")
    new = np.ones(total, dtype=bool)  # a new gram starts where the key changes
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    # each word's index, written at its first entry and summed forward
    owners = entries
    owners[:] = 0
    held = np.flatnonzero(counts)
    firsts = np.cumsum(counts)[held]
    firsts -= counts[held]
    owners[firsts] = np.diff(held, prepend=0)
    np.cumsum(owners, out=owners)
    np.take(owners, by_key, out=ordered, mode="clip")
    # a word's first copy of a gram is kept; its repeats follow it directly
    keep = new.copy()
    keep[1:] |= ordered[1:] != ordered[:-1]
    gram_starts = np.append(np.flatnonzero(new[keep]), np.count_nonzero(keep))
    # each entry's gram id, -1 for a repeat, scattered back to word order
    # into the entries' buffer a block at a time
    last = -1
    for start in range(0, total, _BLOCK):
        ids = np.cumsum(new[start : start + _BLOCK])
        ids += last
        last = ids[-1]
        ids[~keep[start : start + _BLOCK]] = -1
        owners[by_key[start : start + _BLOCK]] = ids
    grams = owners
    del entries, owners, by_key, ordered
    # both arrays own their buffers, so each shrinks in place
    buffer.resize(_compact(buffer, keep))
    grams.resize(_compact(grams, grams >= 0))
    postings = buffer
    # the word bounds and entry counts, allocated first, take the rows' bounds and sizes
    word_starts, sizes = bounds, counts
    np.cumsum(np.bincount(postings, minlength=n), out=word_starts[1:])
    np.subtract(word_starts[1:], word_starts[:-1], out=sizes)
    return GramIndex(sizes, word_starts, grams, gram_starts, postings)


def _compact(values: np.ndarray, mask: np.ndarray) -> int:
    """Move ``values[:mask.size][mask]`` to the front of ``values``; their count.

    A block at a time, so the move needs no copy of the whole array.
    """
    kept = 0
    for start in range(0, mask.size, _BLOCK):
        chosen = mask[start : start + _BLOCK]
        block = values[start : start + chosen.size][chosen]
        values[kept : kept + block.size] = block
        kept += block.size
    return kept
