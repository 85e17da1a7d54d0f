"""Threshold-based greedy dice clustering and the trained stem table.

The clustering walks the lexicon in its canonical order (shortest words
first): the first unassigned word seeds a cluster and every remaining
unassigned word whose dice similarity *with the seed* reaches the
threshold joins it; assigned words leave the pool and the walk repeats
until the pool is empty.  The lexicon is sorted in the stem order, so a
seed is always the smallest member of its cluster and is its stem.

Seeds are scored from the lexicon's gram index (``ngrams.gram_index``)
rather than by comparing word pairs.  A word can only clear a positive
threshold if it shares at least one gram with the seed, and an assigned
word can never join again, so a seed reads only the *live* part of its
grams' posting lists: the words not yet assigned.  Profiles are sets, so
the number of times a word occurs across the seed's live postings is
exactly |seed ∩ word|, the C of 2C/(A+B).

Seeds are scored a block at a time.  A block is the next unassigned
words in lexicon order, taken until their live posting entries reach
``_BLOCK_ENTRIES`` (at least one seed per block), so its temporaries are
bounded by posting volume, not by the number of seeds.  Each gram a block
reads is compacted to its live part once, keeping the shorter list so no
later block scans the assigned words again.  The block's postings are
concatenated with the owning seed beside each entry, and one
``np.unique`` over the keys ``seed * n + other`` counts every pair.

Batching is exact because seeds run in lexicon order: every word before
seed i is assigned by the time i seeds, so whether a later word reaches
the threshold against i does not depend on what the other seeds of the
block take.  Each seed therefore counts only the words after it.  It
also skips words outside the dice size window: as C <= min(A, B) and
2C/(A+B) grows with C, a pair with ``dice_ratio(min(A, B), A, B)`` below
the threshold can never qualify.  A Python walk then visits the block
in order: a word assigned meanwhile is skipped, and a seed takes itself
and its unassigned qualifiers in ascending order.  The join test is
``ngrams.dice_ratio``, the expression the word-level ``dice`` uses, over
the same word pairs, so the clusters are identical to the quadratic
scan's at every budget; a budget of 1 scores the seeds one at a time.

``stem_table_from_clusters`` is the one stem-table constructor, for every
backend; ``stem_word`` and the ``stem`` command look words up through
``StemTable.get``, which cleans a query only when it misses as given.
``StemTable`` checks the order and threshold of its header.  The table
file is written by ``preprocess.write_lines``, once no row is one the
reader would refuse or skip, and read by ``preprocess.read_lines``,
which refuses a carriage return.

numpy is imported inside ``cluster_greedy`` alone, so the commands that
only read or write a stem table start without it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import chain

from .clusters import Cluster
from .config import MEDIAN, GreedyConfig
from .errors import ConfigError, FormatError, PartitionError
from .ngrams import GRAM_ORDERS, dice_ratio, gram_index
from .preprocess import _WRITE_CHUNK, Lexicon, parse_word_pairs, read_lines, tokenize, write_lines

_TABLE_MAGIC = "#stemcluster v1"
# the one header form write_stem_table writes
_TABLE_HEADER = re.compile(re.escape(_TABLE_MAGIC) + r" order=(\S+) threshold=(\S+)")
# the similarity a table was trained with: a greedy gram order, or the
# ap-median backend's median offsets
_TABLE_ORDERS = (*GRAM_ORDERS, MEDIAN)
# live posting entries one block of seeds reads before it is scored; a block
# holds at least one seed, so its temporaries grow with posting volume, not
# with the number of seeds
_BLOCK_ENTRIES = 4096


class StemTable(namedtuple("StemTable", "entries order threshold")):
    """Word -> stem mapping under its file's header: an order from ``_TABLE_ORDERS``,
    and a threshold in ``GreedyConfig``'s range, stored as a ``float``, or None."""

    __slots__ = ()

    def __new__(cls, entries: dict[str, str], order: str, threshold: float | None):
        if order not in _TABLE_ORDERS:
            raise ConfigError(f"order must be one of {_TABLE_ORDERS}, got {order!r}")
        if threshold is not None:
            threshold = float(GreedyConfig(threshold=threshold).threshold)
        return super().__new__(cls, entries, order, threshold)

    def get(self, word: str) -> str | None:
        """Stem of ``word``, else of its one cleaned token; None when unknown.

        Only a miss is cleaned, so exact lookups stay a single dict probe.
        """
        stem = self.entries.get(word)
        if stem is None:
            tokens = tokenize(word)
            if len(tokens) == 1:
                stem = self.entries.get(tokens[0])
        return stem


def cluster_greedy(lexicon: Lexicon, config: GreedyConfig | None = None) -> list[Cluster]:
    """Partition the lexicon into clusters, returned in seed order."""
    import numpy as np

    cfg = config or GreedyConfig()
    words = lexicon.words
    n = len(words)
    index = gram_index(words, cfg.gram_order)
    sizes, grams = index.sizes, index.grams
    starts = index.word_starts.tolist()
    # one view per gram, replaced by its live part when a block reads it
    live = index.posting_lists()

    # one buffer: byte reads for the walk, a bool array for the masks
    free = bytearray(b"\x01") * n
    untaken = np.frombuffer(free, dtype=bool)
    clusters: list[Cluster] = []
    word = 0
    while word < n:
        # the next untaken words, until their live postings fill the budget
        seeds: list[int] = []
        counts: list[int] = []
        hits: list[np.ndarray] = []
        compacted: set[int] = set()
        volume = 0
        while word < n and volume < _BLOCK_ENTRIES:
            if free[word]:
                before = volume
                for gram in grams[starts[word] : starts[word + 1]].tolist():
                    posting = live[gram]
                    if gram not in compacted:
                        compacted.add(gram)
                        posting = live[gram] = posting[untaken[posting]]
                    hits.append(posting)
                    volume += len(posting)
                seeds.append(word)
                counts.append(volume - before)
            word += 1
        # a seed counts only later words inside its size window
        block = np.array(seeds, dtype=np.int64)
        owners = np.repeat(block, counts)
        # a block of gramless words reads nothing, and owners is empty too
        others = np.concatenate(hits) if hits else owners
        size_a, size_b = np.repeat(sizes[block], counts), sizes[others]
        window = dice_ratio(np.minimum(size_a, size_b), size_a, size_b) >= cfg.threshold
        keep = (others > owners) & window
        keys, common = np.unique(owners[keep] * n + others[keep], return_counts=True)
        pairs = keys[dice_ratio(common, sizes[keys // n], sizes[keys % n]) >= cfg.threshold]
        # the pairs come grouped by seed, each group in ascending word order
        bounds = np.searchsorted(pairs, block * n).tolist() + [len(pairs)]
        qualifiers = (pairs % n).tolist()
        for seed, low, high in zip(seeds, bounds, bounds[1:]):
            if not free[seed]:
                continue
            free[seed] = 0
            members = [words[seed]]
            for other in qualifiers[low:high]:
                if free[other]:
                    free[other] = 0
                    members.append(words[other])
            # words ascend in stem order, so the seed is its cluster's stem
            clusters.append(Cluster(stem=words[seed], members=tuple(members)))
    return clusters


def stem_table_from_clusters(clusters, *, order: str, threshold: float | None) -> StemTable:
    """Expand clusters into a word -> stem map, refusing overlaps."""
    entries: dict[str, str] = {}
    for cluster in clusters:
        for word in cluster.members:
            if word in entries:
                raise PartitionError(f"word {word!r} appears in more than one cluster")
            entries[word] = cluster.stem
    return StemTable(entries=entries, order=order, threshold=threshold)


def stem_word(table: StemTable, word: str) -> str:
    """Mapped stem for known words (see ``StemTable.get``); others come back unchanged."""
    stem = table.get(word)
    return word if stem is None else stem


def _readable(words, stems) -> bool:
    """Whether rows of these words and stems read back as they were written.

    The reader refuses an empty field or one holding a TAB, LF or CR, and
    skips a row whose word starts with '#'.  Each column is searched at C
    speed as one text joined by LF: a field's own LF shows as one LF too
    many, and a later word starting with '#' as an LF before a '#'.
    """
    for column, marks in ((words, ("\t", "\r", "\n#")), (stems, ("\t", "\r"))):
        text = "\n".join(column)
        if "" in column or text.count("\n") != len(column) - 1 or any(m in text for m in marks):
            return False
    return not words[0].startswith("#")


def write_stem_table(table: StemTable, path) -> None:
    """TSV rows sorted by word under a `#stemcluster v1` header, LF, UTF-8.

    A table with a row that ``read_stem_table`` would refuse or skip is
    refused before the file is opened.
    """
    entries = table.entries
    words = sorted(entries)
    # a chunk of rows at a time, so the check holds no copy of a whole column
    for start in range(0, len(words), _WRITE_CHUNK):
        chunk = words[start : start + _WRITE_CHUNK]
        if not _readable(chunk, list(map(entries.__getitem__, chunk))):
            word = next(word for word in chunk if not _readable([word], [entries[word]]))
            raise FormatError(
                f"cannot write the row {word!r} -> {entries[word]!r}: a word or stem is empty "
                "or holds a TAB, LF or CR, or a word starts with '#'",
                path=path,
            )
    threshold = "-" if table.threshold is None else repr(table.threshold)
    header = f"{_TABLE_MAGIC} order={table.order} threshold={threshold}"
    write_lines(path, chain([header], (f"{word}\t{entries[word]}" for word in words)))


def read_stem_table(path) -> StemTable:
    lines = read_lines(path)
    header = _TABLE_HEADER.fullmatch(lines[0])
    if header is None:
        raise FormatError(
            f"expected a '{_TABLE_MAGIC} order=<order> threshold=<threshold>' header",
            path=path,
            line=1,
        )
    order, value = header.groups()
    try:
        table = StemTable({}, order, None if value == "-" else float(value))
    except ValueError as exc:  # a ConfigError, or a threshold that is no number
        raise FormatError(
            f"bad header ({exc}); got order {order!r} and threshold {value!r}, where '-' is none",
            path=path,
            line=1,
        ) from None
    # the header is a '#' line, so the row reader skips it
    table.entries.update(parse_word_pairs(lines, "stem", path))
    return table
