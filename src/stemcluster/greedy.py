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
exactly |seed ∩ word|, the C of 2C/(A+B).  The join test is the same
float64 expression as the pairwise scan's, over the same word pairs,
and joiners are taken in ascending lexicon order, so the clusters are
identical to the quadratic scan's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ap import MEDIAN
from .clusters import Cluster, select_stem
from .errors import ConfigError, FormatError, PartitionError
from .ngrams import BIGRAM, GRAM_ORDERS, gram_index
from .preprocess import Lexicon, read_text

DEFAULT_THRESHOLD = 0.06

_TABLE_MAGIC = "#stemcluster v1"
# the similarity a table was trained with: a greedy gram order, or the
# ap-median backend's median offsets
_TABLE_ORDERS = (*GRAM_ORDERS, MEDIAN)


@dataclass(frozen=True)
class GreedyConfig:
    gram_order: str = BIGRAM
    threshold: float = DEFAULT_THRESHOLD

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
    lexicon_size: int
    cluster_count: int

    def __contains__(self, word: str) -> bool:
        return word in self.entries


def cluster_greedy(lexicon: Lexicon, config: GreedyConfig | None = None) -> list[Cluster]:
    """Partition the lexicon into clusters, returned in seed order."""
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
            joined = others[2 * common / (sizes[seed] + sizes[others]) >= cfg.threshold]
            assigned[joined] = True
            members.extend(words[other] for other in joined.tolist())
        clusters.append(Cluster(stem=select_stem(members), members=tuple(members)))
    return clusters


def build_stem_table(clusters, config: GreedyConfig | None = None) -> StemTable:
    cfg = config or GreedyConfig()
    return stem_table_from_clusters(clusters, order=cfg.gram_order, threshold=cfg.threshold)


def stem_table_from_clusters(clusters, *, order: str, threshold: float | None) -> StemTable:
    """Expand clusters into a word -> stem map, refusing overlaps."""
    entries: dict[str, str] = {}
    count = 0
    for cluster in clusters:
        count += 1
        for word in cluster.members:
            if word in entries:
                raise PartitionError(f"word {word!r} appears in more than one cluster")
            entries[word] = cluster.stem
    return StemTable(
        entries=entries,
        order=order,
        threshold=threshold,
        lexicon_size=len(entries),
        cluster_count=count,
    )


def stem_word(table: StemTable, word: str) -> str:
    """Mapped stem for known words; unknown words come back unchanged."""
    return table.entries.get(word, word)


def write_stem_table(table: StemTable, path) -> None:
    """TSV rows sorted by word under a `#stemcluster v1` header, LF, UTF-8."""
    threshold = "-" if table.threshold is None else repr(table.threshold)
    lines = [f"{_TABLE_MAGIC} order={table.order} threshold={threshold}"]
    for word in sorted(table.entries):
        lines.append(f"{word}\t{table.entries[word]}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def read_stem_table(path) -> StemTable:
    text = read_text(path)
    lines = text.split("\n")
    if not lines or not lines[0].startswith(_TABLE_MAGIC):
        raise FormatError(f"missing {_TABLE_MAGIC!r} header", path=path, line=1)
    order = BIGRAM
    threshold: float | None = None
    for field in lines[0][len(_TABLE_MAGIC) :].split():
        key, _, value = field.partition("=")
        if key == "order":
            if value not in _TABLE_ORDERS:
                raise FormatError(
                    f"order must be one of {_TABLE_ORDERS}, got {value!r}", path=path, line=1
                )
            order = value
        elif key == "threshold":
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
    entries: dict[str, str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise FormatError(f"expected 'word<TAB>stem', got {line!r}", path=path, line=lineno)
        word, stem = fields
        if word in entries and entries[word] != stem:
            raise FormatError(
                f"word {word!r} mapped to both {entries[word]!r} and {stem!r}",
                path=path,
                line=lineno,
            )
        entries[word] = stem
    return StemTable(
        entries=entries,
        order=order,
        threshold=threshold,
        lexicon_size=len(entries),
        cluster_count=len(set(entries.values())),
    )
