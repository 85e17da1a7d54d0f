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

numpy is imported inside ``cluster_greedy`` alone, so the commands that
only read or write a stem table start without it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .ap import MEDIAN
from .clusters import Cluster
from .errors import ConfigError, FormatError, PartitionError
from .ngrams import BIGRAM, GRAM_ORDERS, dice_ratio, gram_index
from .preprocess import Lexicon, parse_word_pairs, read_text, refuse_carriage_returns, tokenize

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


@dataclass(frozen=True)
class GreedyConfig:
    gram_order: str = BIGRAM
    threshold: float = 0.06

    def __post_init__(self):
        if self.gram_order not in GRAM_ORDERS:
            raise ConfigError(f"gram order must be one of {GRAM_ORDERS}, got {self.gram_order!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie strictly between 0 and 1, got {self.threshold}")


@dataclass
class StemTable:
    """Immutable-after-build word -> stem mapping with its provenance."""

    entries: dict[str, str]
    order: str
    threshold: float | None

    @property
    def lexicon_size(self) -> int:
        return len(self.entries)

    @property
    def cluster_count(self) -> int:
        # every stem is a member of its own cluster, so stems are distinct
        return len(set(self.entries.values()))

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

    def __contains__(self, word: str) -> bool:
        return self.get(word) is not None


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


def write_stem_table(table: StemTable, path) -> None:
    """TSV rows sorted by word under a `#stemcluster v1` header, LF, UTF-8."""
    threshold = "-" if table.threshold is None else repr(table.threshold)
    lines = [f"{_TABLE_MAGIC} order={table.order} threshold={threshold}"]
    for word in sorted(table.entries):
        lines.append(f"{word}\t{table.entries[word]}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def read_stem_table(path) -> StemTable:
    text = read_text(path)
    refuse_carriage_returns(text, path)
    header = _TABLE_HEADER.fullmatch(text.partition("\n")[0])
    if header is None:
        raise FormatError(
            f"expected a '{_TABLE_MAGIC} order=<order> threshold=<threshold>' header",
            path=path,
            line=1,
        )
    order, value = header.groups()
    if order not in _TABLE_ORDERS:
        raise FormatError(f"order must be one of {_TABLE_ORDERS}, got {order!r}", path=path, line=1)
    try:
        threshold = None if value == "-" else float(value)
    except ValueError:
        raise FormatError(f"bad threshold value {value!r}", path=path, line=1) from None
    # the range GreedyConfig trains with; also refuses nan and inf
    if threshold is not None and not 0.0 < threshold < 1.0:
        raise FormatError(
            f"threshold must be '-' or lie strictly between 0 and 1, got {value!r}",
            path=path,
            line=1,
        )
    # the header is a '#' line, so the row reader skips it
    entries = parse_word_pairs(text, "stem", path)
    return StemTable(entries=entries, order=order, threshold=threshold)
