"""Statistical stemming for Bangla by clustering related word forms.

Two backends over a shared preprocessing pipeline: greedy threshold
clustering on character n-gram dice similarity, and from-scratch affinity
propagation over a dense similarity matrix (dice or median-offset mode).
Each cluster's stem is its shortest member.

numpy is imported inside the functions that use it and json inside the
ones that read or write JSON, so ``import stemcluster`` loads neither;
the record types are named tuples, which generate no code at import.
"""

from .ap import APConfig, build_similarity_matrix, run_ap
from .clusters import read_cluster_report, write_cluster_report
from .errors import StemclusterError
from .evaluation import load_gold, report_stats, score_clusters
from .greedy import (
    GreedyConfig,
    cluster_greedy,
    read_stem_table,
    stem_table_from_clusters,
    stem_word,
    write_stem_table,
)
from .ngrams import dice
from .preprocess import build_lexicon, clean_text, read_lexicon, tokenize, write_lexicon

__version__ = "0.1.0"

__all__ = [
    "APConfig", "GreedyConfig", "StemclusterError", "build_lexicon",
    "build_similarity_matrix", "clean_text", "cluster_greedy", "dice", "load_gold",
    "read_cluster_report", "read_lexicon", "read_stem_table", "report_stats", "run_ap",
    "score_clusters", "stem_table_from_clusters", "stem_word", "tokenize",
    "write_cluster_report", "write_lexicon", "write_stem_table",
]
