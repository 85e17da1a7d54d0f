"""Statistical stemming for Bangla by clustering related word forms.

Two backends over a shared preprocessing pipeline: greedy threshold
clustering on character n-gram dice similarity, and from-scratch affinity
propagation over a dense similarity matrix (dice or median-offset mode).
Each cluster's stem is its shortest member.

The public names are imported from their modules on first access (PEP
562), so ``import stemcluster`` and the commands that build no arrays
start without loading numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "APConfig": "ap",
    "GreedyConfig": "greedy",
    "StemclusterError": "errors",
    "build_lexicon": "preprocess",
    "build_similarity_matrix": "ap",
    "clean_text": "preprocess",
    "cluster_greedy": "greedy",
    "dice": "ngrams",
    "load_gold": "evaluation",
    "read_cluster_report": "clusters",
    "read_lexicon": "preprocess",
    "read_stem_table": "greedy",
    "report_stats": "evaluation",
    "run_ap": "ap",
    "score_clusters": "evaluation",
    "stem_table_from_clusters": "greedy",
    "stem_word": "greedy",
    "tokenize": "preprocess",
    "write_cluster_report": "clusters",
    "write_lexicon": "preprocess",
    "write_stem_table": "greedy",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
