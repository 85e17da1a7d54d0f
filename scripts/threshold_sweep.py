#!/usr/bin/env python3
"""Sweep the greedy threshold over a lexicon and watch the cluster count grow.

With a gold file the sweep also reports accuracy per threshold, which makes
the permissiveness/purity trade-off of the default 0.06 visible on real data.
"""

import argparse
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stemcluster import GreedyConfig, cluster_greedy, load_gold, report_stats, score_clusters
from stemcluster.ngrams import GRAM_ORDERS
from stemcluster.preprocess import read_lexicon

DEFAULT_THRESHOLDS = (0.02, 0.04, 0.06, 0.1, 0.15, 0.25, 0.4, 0.6, 0.8)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("lexicon", help="lexicon file (one word per line)")
    parser.add_argument("--gold", help="gold TSV for accuracy per threshold")
    parser.add_argument("--ngram", choices=GRAM_ORDERS, default=GreedyConfig().gram_order)
    parser.add_argument(
        "--thresholds",
        type=float,
        nargs="+",
        default=list(DEFAULT_THRESHOLDS),
    )
    args = parser.parse_args()

    lexicon = read_lexicon(args.lexicon)
    gold = load_gold(args.gold) if args.gold else None

    header = f"{'threshold':>10} {'clusters':>9} {'ratio':>7}"
    if gold is not None:
        header += f" {'accuracy':>9}"
    print(header)
    for threshold in args.thresholds:
        clusters = cluster_greedy(lexicon, GreedyConfig(gram_order=args.ngram, threshold=threshold))
        stats = report_stats(clusters)
        line = f"{threshold:>10.3f} {stats['total_clusters']:>9} {stats['reduction_ratio']:>7.3f}"
        if gold is not None:
            line += f" {score_clusters(clusters, gold).accuracy:>9.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
