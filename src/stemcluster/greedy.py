"""Threshold-based greedy dice clustering and the trained stem table.

The clustering walks the lexicon in its canonical order (shortest words
first): the first unassigned word seeds a cluster and every remaining
unassigned word whose dice similarity *with the seed* reaches the
threshold joins it; assigned words leave the pool and the walk repeats
until the pool is empty.  Because seeds are the shortest available words,
the seed and the selected stem usually coincide.

Seeds are scored from the lexicon's gram index (``ngrams.gram_index``)
rather than by comparing word pairs.  A word can only clear a positive
threshold if it shares at least one gram with the seed, and an assigned
word can never join again, so each seed reads only the *live* part of
its grams' posting lists: the words not yet assigned.  Reading a posting
list drops the words assigned since it was last read and keeps the
shorter list, so no later seed scans them again.  Profiles are sets, so
the number of times a word occurs across the seed's live postings is
exactly |seed ∩ word|, the C of 2C/(A+B).  The join test is
``ngrams.dice_ratio``, the expression the word-level ``dice`` uses, over
the same word pairs, and joiners are taken in ascending lexicon order, so
the clusters are identical to the quadratic scan's.

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
from .clusters import Cluster, select_stem
from .errors import ConfigError, FormatError, PartitionError
from .ngrams import BIGRAM, GRAM_ORDERS, dice_ratio, gram_index
from .preprocess import Lexicon, clean_text, parse_word_pairs, read_text, tokenize

_TABLE_MAGIC = "#stemcluster v1"
# the one header form write_stem_table writes
_TABLE_HEADER = re.compile(re.escape(_TABLE_MAGIC) + r" order=(\S+) threshold=(\S+)")
# the similarity a table was trained with: a greedy gram order, or the
# ap-median backend's median offsets
_TABLE_ORDERS = (*GRAM_ORDERS, MEDIAN)


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
            tokens = tokenize(clean_text(word))
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
    index = gram_index(words, cfg.gram_order)
    sizes, grams = index.sizes, index.grams
    starts = index.word_starts.tolist()
    # one view per gram, replaced by its live part whenever a seed reads it
    live = index.posting_lists()

    # one buffer: byte reads for the walk, a bool array for the masks
    taken = bytearray(len(words))
    assigned = np.frombuffer(taken, dtype=bool)
    clusters: list[Cluster] = []
    for seed in range(len(words)):
        if taken[seed]:
            continue
        taken[seed] = 1
        members = [words[seed]]
        hits = []
        for gram in grams[starts[seed] : starts[seed + 1]].tolist():
            posting = live[gram]
            posting = live[gram] = posting[~assigned[posting]]
            hits.append(posting)
        if hits:
            others, common = np.unique(np.concatenate(hits), return_counts=True)
            joined = others[dice_ratio(common, sizes[seed], sizes[others]) >= cfg.threshold]
            assigned[joined] = True
            members.extend(words[other] for other in joined.tolist())
        clusters.append(Cluster(stem=select_stem(members), members=tuple(members)))
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
