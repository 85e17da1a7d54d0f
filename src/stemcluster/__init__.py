"""Statistical stemming for Bangla by clustering related word forms.

Two backends over a shared preprocessing pipeline: greedy threshold
clustering on character n-gram dice similarity, and from-scratch affinity
propagation over a dense similarity matrix (dice or median-offset mode).
Each cluster's stem is its shortest member.

``import stemcluster`` loads no submodule.  ``_HOMES`` maps each public
name to the module that defines it, and the module's ``__getattr__``
imports that module on the name's first use and binds the name here, so
a command or a caller loads only the modules it uses.  numpy is imported
inside the functions that use it and json inside the ones that read or
write JSON; the record types are named tuples, which generate no code at
import.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "APConfig": "config", "GreedyConfig": "config", "StemclusterError": "errors",
    "build_lexicon": "preprocess", "build_similarity_matrix": "ap",
    "clean_text": "preprocess", "cluster_greedy": "greedy", "dice": "ngrams",
    "load_gold": "evaluation", "read_cluster_report": "clusters",
    "read_lexicon": "preprocess", "read_stem_table": "greedy",
    "report_stats": "evaluation", "run_ap": "ap", "score_clusters": "evaluation",
    "stem_table_from_clusters": "greedy", "stem_word": "greedy", "tokenize": "preprocess",
    "write_cluster_report": "clusters", "write_lexicon": "preprocess",
    "write_stem_table": "greedy",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
