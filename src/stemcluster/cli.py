"""Command-line front end: preprocess, train, stem, evaluate.

Every stage reads and writes plain UTF-8 files (lexicon: one word per
line; stem table: TSV; cluster report: JSON; gold standard: TSV) so runs
can be chained in shell pipelines and compared byte-for-byte.  Every
hyperparameter defaults to its ``GreedyConfig`` or ``APConfig`` field,
and the whole pipeline is deterministic: identical inputs produce
identical artifacts.

The module loads only the parser's needs: the settings records, the
errors and the gram orders.  Each ``cmd_*`` imports the modules it runs,
so ``--help`` and ``preprocess`` load no clustering code, and an AP
``train`` loads ``ap`` and the other clustering modules only once
``APConfig`` has let its lexicon through.

``stem`` answers stdin a block of complete lines at a time and writes
each block's answers at once; argument words are answered as one block.
"""

from __future__ import annotations

import argparse
import sys

from .config import COEFFICIENT, MEDIAN, MEDIAN_PREFERENCE, APConfig, GreedyConfig, estimated_peak
from .errors import ConfigError, InputEncodingError, StemclusterError
from .ngrams import COMBINED, GRAM_ORDERS

# each exemplar backend's similarity mode and the order its stem table records
_AP_BACKENDS = {"ap-coeff": (COEFFICIENT, COMBINED), "ap-median": (MEDIAN, MEDIAN)}
BACKENDS = ("greedy", *_AP_BACKENDS)


def _preference(value: str):
    if value == MEDIAN_PREFERENCE:
        return value
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"preference must be 'median' or a number, got {value!r}"
        ) from None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit status 2."""

    def error(self, message):
        self.exit(2, f"error: {_one_line(message)}\n")


class _CommandParser(_Parser):
    """A command's own parser: its options may sit between the items of a
    list argument, as in ``stem TABLE --mark-oov WORD WORD``.

    Plain parsing binds a list argument before the first option and leaves
    the items after it unrecognized.  The top-level parser cannot parse
    intermixed arguments, because it holds the commands, so each command
    parses its own that way.
    """

    _intermixed = False

    def parse_known_args(self, args=None, namespace=None):
        # ``parse_known_intermixed_args`` may call this method for each of its passes
        if self._intermixed:
            return super().parse_known_args(args, namespace)
        self._intermixed = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixed = False


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stemcluster",
        description="Cluster related Bangla word forms into stem groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    greedy, ap = GreedyConfig(), APConfig()

    p = sub.add_parser("preprocess", help="clean raw text files into a lexicon")
    p.add_argument("inputs", nargs="+", metavar="TEXTFILE")
    p.add_argument("-o", "--output", required=True, help="lexicon file to write")
    p.add_argument("--stats", action="store_true", help="prepend a #stats header line")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="cluster a lexicon and write the stem table")
    p.add_argument("lexicon", metavar="LEXICON")
    p.add_argument("--backend", choices=BACKENDS, default="greedy")
    p.add_argument("--ngram", choices=GRAM_ORDERS, default=greedy.gram_order,
                   help="gram order for the greedy backend (default %(default)s)")
    p.add_argument("--threshold", type=float, default=greedy.threshold,
                   help="greedy similarity threshold (default %(default)s)")
    p.add_argument("--damping", type=float, default=ap.damping,
                   help="message damping factor (default %(default)s)")
    p.add_argument("--preference", type=_preference, default=ap.preference,
                   help="'median' or a fixed self-similarity (default %(default)s)")
    p.add_argument("--max-iter", type=int, default=ap.max_iterations)
    p.add_argument("--max-points", type=int, default=ap.max_points,
                   help="refuse affinity propagation beyond this many words")
    p.add_argument("--stem-table", default="stem_table.tsv", help="stem table TSV to write")
    p.add_argument("--report", default="cluster_report.json", help="cluster report JSON to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("stem", help="map words to their trained stems")
    p.add_argument("table", metavar="STEMTABLE")
    p.add_argument("words", nargs="*", metavar="WORD",
                   help="words to stem (reads stdin lines when omitted)")
    p.add_argument("--mark-oov", action="store_true",
                   help="tag words missing from the table")
    p.set_defaults(func=cmd_stem)

    p = sub.add_parser("evaluate", help="score a cluster report against gold labels")
    p.add_argument("report", metavar="REPORT")
    p.add_argument("gold", metavar="GOLD")
    p.add_argument("--table", action="store_true", help="print a plain-text table instead of JSON")
    p.add_argument("--strict", action="store_true",
                   help="also require each stem to equal its gold label")
    p.add_argument("--min-accuracy", type=float, default=None,
                   help="exit nonzero when accuracy falls below this value")
    p.set_defaults(func=cmd_evaluate)

    return parser


def cmd_preprocess(args) -> int:
    from .preprocess import build_lexicon, read_text, tokenize, write_lexicon
    tokens: list[str] = []
    for path in args.inputs:
        tokens.extend(tokenize(read_text(path)))
    lexicon = build_lexicon(tokens)
    if lexicon.unique_tokens == 0:
        print("warning: no tokens survived preprocessing", file=sys.stderr)
    write_lexicon(lexicon, args.output, stats=args.stats)
    print(f"total={lexicon.total_tokens} unique={lexicon.unique_tokens}")
    return 0


def cmd_train(args) -> int:
    from .preprocess import read_lexicon
    lexicon = read_lexicon(args.lexicon)
    if args.backend == "greedy":
        from .greedy import cluster_greedy
        config = GreedyConfig(gram_order=args.ngram, threshold=args.threshold)
        clusters = cluster_greedy(lexicon, config)
        order, threshold = config.gram_order, config.threshold
        run = {}
    else:
        mode, order = _AP_BACKENDS[args.backend]
        config = APConfig(
            damping=args.damping,
            preference=args.preference,
            max_iterations=args.max_iter,
            max_points=args.max_points,
        )
        # refuse an oversized lexicon before numpy or any clustering module is loaded
        config.check_capacity(lexicon.unique_tokens, mode)
        from .ap import build_similarity_matrix, run_ap
        try:
            matrix = build_similarity_matrix(lexicon, mode, config)
            result = run_ap(matrix, config)
        except MemoryError:
            peak = estimated_peak(lexicon.unique_tokens, mode)
            raise MemoryError(f"out of memory: {peak}") from None
        clusters = result.clusters
        threshold = None
        # the run's fields of the cluster report
        run = {"exemplars": result.exemplars, "mode": result.mode,
               "converged": result.converged, "iterations": result.iterations}
    from .clusters import write_cluster_report
    from .evaluation import report_stats
    from .greedy import stem_table_from_clusters, write_stem_table
    # a stem table that cannot be built is refused before any artifact is
    # written; it is written and freed before the report's payload is built
    write_stem_table(stem_table_from_clusters(clusters, order=order, threshold=threshold),
                     args.stem_table)
    write_cluster_report(args.report, clusters, **run)
    if run:
        if not run["converged"]:
            print(f"warning: not converged after {run['iterations']} iterations", file=sys.stderr)
        print(f"mode={run['mode']} converged={str(run['converged']).lower()} "
              f"iterations={run['iterations']}")
    stats = report_stats(clusters)
    print(f"clusters={stats['total_clusters']} reduction_ratio={stats['reduction_ratio']:.4f}")
    return 0


def cmd_stem(args) -> int:
    from .greedy import read_stem_table
    if sys.stdout is None:
        raise StemclusterError("stdout is closed; nowhere to write the stems")
    if not args.words and sys.stdin is None:
        raise StemclusterError("stdin is closed; give the words as arguments")
    table = read_stem_table(args.table)
    blocks = [args.words] if args.words else _stdin_blocks(sys.stdin)
    write = sys.stdout.write
    for words in blocks:
        answers = _answers(table, words, args.mark_oov)
        if answers:
            write("\n".join(answers) + "\n")
    return 0


def _stdin_blocks(stdin):
    """Stripped stdin lines, one list per block of complete lines.

    ``read1`` returns up to 64 KiB of what is already there without
    waiting for more, so a terminal hands over one line at a time; a cut
    last line is finished by ``readline``, so no block splits a line or a
    UTF-8 character.
    """
    buffer = stdin.buffer
    while block := buffer.read1(1 << 16):
        if not block.endswith(b"\n"):
            block += buffer.readline()
        try:
            text = block.decode(stdin.encoding, stdin.errors)
        except UnicodeDecodeError as exc:
            raise InputEncodingError(f"stdin: not valid {exc.encoding} ({exc.reason})") from None
        yield [line.strip() for line in text.split("\n")]


def _answers(table, words, mark_oov: bool) -> list[str]:
    """One answer per non-empty word, as ``StemTable.get`` sees it."""
    # the exact probe inline; ``table.get`` runs only for a miss
    exact = table.entries.get
    answers = []
    for word in words:
        if not word:
            continue
        stem = exact(word)
        if stem is None:
            stem = table.get(word)
            if stem is None:
                stem = f"{word}\t[OOV]" if mark_oov else word
        answers.append(stem)
    return answers


def cmd_evaluate(args) -> int:
    import json
    from .clusters import read_cluster_report
    from .evaluation import format_table, load_gold, score_clusters
    if args.min_accuracy is not None and not 0.0 <= args.min_accuracy <= 1.0:
        raise ConfigError(f"--min-accuracy must lie in [0, 1], got {args.min_accuracy}")
    clusters, _meta = read_cluster_report(args.report)
    gold = load_gold(args.gold)
    report = score_clusters(clusters, gold, strict=args.strict)
    if args.table:
        print(format_table(report))
    else:
        print(json.dumps(report.as_dict(), ensure_ascii=False, indent=2))
    if args.min_accuracy is not None and report.accuracy < args.min_accuracy:
        raise StemclusterError(f"accuracy {report.accuracy:.4f} below required {args.min_accuracy}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StemclusterError, OSError, ImportError) as exc:
        # each command imports what it runs, so a missing numpy shows up here
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1
    except MemoryError as exc:
        print(f"error: {_one_line(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except UnicodeEncodeError as exc:
        # every file is written as UTF-8, so only stdout's encoding can refuse
        print(f"error: stdout: cannot encode the output as {exc.encoding} ({exc.reason})",
              file=sys.stderr)
        return 1


def _one_line(exc: object) -> str:
    return " ".join(str(exc).split())
