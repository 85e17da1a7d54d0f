"""Score clusters against a gold standard and summarise runs.

A cluster counts as correct when every member that the gold standard
covers carries one and the same gold label, and at least one member is
covered.  Words absent from the gold file neither help nor poison a
cluster; they are tallied as uncovered.  Strict mode additionally demands
that the selected stem equal the gold label, which penalises fragments of
a family that clustered around the "wrong" representative.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .preprocess import parse_word_pairs, read_lines


class EvalReport(NamedTuple):
    unique_tokens: int
    total_clusters: int
    correct_clusters: int
    correct_words: int
    accuracy: float
    uncovered_words: int

    def accuracy_percent(self) -> int:
        """Whole-percent display, truncated exactly from the counts (0.877 prints as 87%)."""
        return self.correct_clusters * 100 // self.total_clusters if self.total_clusters else 0

    def as_dict(self) -> dict:
        return {**self._asdict(), "accuracy_percent": self.accuracy_percent()}


def load_gold(path) -> dict[str, str]:
    """Parse a `word<TAB>label` TSV; conflicting duplicates are rejected."""
    return parse_word_pairs(read_lines(path), "label", path)


def score_clusters(clusters, gold: dict[str, str], strict: bool = False) -> EvalReport:
    clusters = list(clusters)
    correct_clusters = 0
    correct_words = 0
    uncovered = 0
    unique_tokens = 0
    for cluster in clusters:
        unique_tokens += len(cluster.members)
        labels = [gold[w] for w in cluster.members if w in gold]
        uncovered += len(cluster.members) - len(labels)
        ok = bool(labels) and len(set(labels)) == 1
        if ok and strict:
            ok = cluster.stem == labels[0]
        if ok:
            correct_clusters += 1
            correct_words += len(labels)
    total = len(clusters)
    accuracy = correct_clusters / total if total > 0 else 0.0
    return EvalReport(
        unique_tokens=unique_tokens,
        total_clusters=total,
        correct_clusters=correct_clusters,
        correct_words=correct_words,
        accuracy=accuracy,
        uncovered_words=uncovered,
    )


def report_stats(clusters) -> dict:
    """Cluster-count summary: sizes histogram and the reduction ratio."""
    clusters = list(clusters)
    unique_tokens = sum(len(cluster.members) for cluster in clusters)
    histogram = Counter(len(cluster.members) for cluster in clusters)
    ratio = len(clusters) / unique_tokens if unique_tokens > 0 else 0.0
    return {
        "unique_tokens": unique_tokens,
        "total_clusters": len(clusters),
        "size_histogram": dict(sorted(histogram.items())),
        "reduction_ratio": ratio,
    }


def format_table(report: EvalReport) -> str:
    """Plain-text two-column summary of an evaluation."""
    rows = [
        ("Topic", "Quantity"),
        ("Unique Token", str(report.unique_tokens)),
        ("Total Cluster", str(report.total_clusters)),
        ("Correct Cluster", str(report.correct_clusters)),
        ("Correct word", str(report.correct_words)),
        ("Accuracy", f"{report.accuracy_percent()}%"),
    ]
    width = max(len(label) for label, _ in rows) + 2
    return "\n".join(f"{label:<{width}}{value}" for label, value in rows)
