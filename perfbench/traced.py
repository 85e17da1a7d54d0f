"""Traced run: the workload's commands replayed in-process, with spans.

The replay calls the package's public functions in the order the CLI
does, writes its artifacts to a directory of its own, and every artifact
and printed result must equal the CLI run's byte for byte, which shows
that the probes follow the shipped path.  Spans carry name, start, end,
parent span and workload; they are kept in memory and written as JSONL
when the run ends.  A layer's time is the self time of its spans (a
span's duration minus the part its child spans cover), summed per
workload.  Peak allocations come from a separate ``tracemalloc`` pass
over the affinity-propagation calls, so it never inflates timed spans.

A probed function that no longer exists is reported as missing: the rest
of that command is skipped, its metrics are left out, and the run does
not fail for it.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import checks
from workloads import REFERENCE_PASSES, SRC, Op, Session, Train, reference_s

# backend: (metric prefix, similarity mode, stem-table order)
AP_MODES = {"ap-coeff": ("coeff", "coefficient", "2+3"), "ap-median": ("median", "median", "median")}

# name: unit, for every per-layer metric; ``.._s`` names are summed self time
PER_LAYER = {
    "preprocess.self_s": "s",
    "preprocess.read_lexicon_s": "s",
    "preprocess.words": "count",
    "preprocess.tokens": "count",
    "ngrams.posting_pairs": "count",
    "greedy.self_s": "s",
    "greedy.cluster_s": "s",
    "greedy.words_per_s": "words/s",
    "greedy.clusters": "count",
    "greedy.largest_cluster": "count",
    "greedy.stem_table_s": "s",
    "greedy.write_stem_table_s": "s",
    "greedy.read_stem_table_s": "s",
    "greedy.lookup_s": "s",
    "greedy.lookups_per_s": "lookups/s",
    "greedy.lookup_oov": "count",
    "ap.self_s": "s",
    "ap.refuse_s": "s",
    "ap.matrix_share": "ratio",
    "ap.median_share": "ratio",
    "ap.coeff.iterations": "count",
    "ap.median.iterations": "count",
    "ap.coeff.exemplars": "count",
    "ap.median.exemplars": "count",
    "ap.matrix_peak_n2": "n2x8B",
    "ap.run_peak_n2": "n2x8B",
    "clusters.write_report_s": "s",
    "clusters.read_report_s": "s",
    "clusters.report_mb": "MB",
    "evaluation.load_gold_s": "s",
    "evaluation.score_s": "s",
    "evaluation.report_stats_s": "s",
    "cli.unaccounted_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.reference_s": "s",
}

# further per-layer figures, printed on the human-readable lines only because
# they exist on one workload and not on the others
DETAIL = {
    "preprocess.read_text_s": "s",
    "preprocess.clean_text_s": "s",
    "preprocess.tokenize_s": "s",
    "preprocess.build_lexicon_s": "s",
    "preprocess.write_lexicon_s": "s",
    "preprocess.clean_mb_per_s": "MB/s",
    "ap.coeff.matrix_s": "s",
    "ap.median.matrix_s": "s",
    "ap.coeff.run_s": "s",
    "ap.median.run_s": "s",
    "ap.coeff.iteration_s": "s",
    "ap.median.iteration_s": "s",
    "ap.coeff.matrix_peak_n2": "n2x8B",
    "ap.median.matrix_peak_n2": "n2x8B",
    "ap.coeff.run_peak_n2": "n2x8B",
    "ap.median.run_peak_n2": "n2x8B",
}


class Missing(Exception):
    """A probed function is absent from the package."""


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self.stack[-1] if self.stack else None,
                  "workload": self.workload, "start": time.perf_counter() - self.origin,
                  "end": None}
        self.spans.append(record)
        self.stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self.origin
            self.stack.pop()

    def call(self, name: str, module: str, attr: str, *args, **kwargs):
        """Call ``stemcluster.<module>.<attr>`` inside a span named ``name``."""
        fn = self.lookup(module, attr)
        with self.span(name):
            return fn(*args, **kwargs)

    def lookup(self, module: str, attr: str):
        try:
            return getattr(importlib.import_module(f"stemcluster.{module}"), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            raise Missing(f"{module}.{attr}") from None

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = {}
        for record, child in zip(self.spans, covered):
            own = record["end"] - record["start"] - child
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def write_jsonl(self, path: Path) -> None:
        path.write_text("".join(json.dumps(r) + "\n" for r in self.spans), encoding="utf-8")


class Replay:
    """The workload's CLI commands as in-process calls; mirrors cli.py."""

    def __init__(self, tracer: Tracer, out: Path):
        self.t = tracer
        self.out = out
        self.text_bytes = 0
        self.lexicon = None                      # the last training lexicon
        self.greedy: list[tuple[int, list]] = []   # (words, clusters) per greedy run
        self.ap: dict = {}                        # metric prefix: APResult
        self.ap_config = None
        self.lookups = self.oov = 0
        self.printed: dict[str, bytes] = {}

    def preprocess(self, corpus: Path, lexicon: Path):
        t = self.t
        text = t.call("preprocess.read_text", "preprocess", "read_text", corpus)
        cleaned = t.call("preprocess.clean_text", "preprocess", "clean_text", text)
        tokens = t.call("preprocess.tokenize", "preprocess", "tokenize", cleaned)
        built = t.call("preprocess.build_lexicon", "preprocess", "build_lexicon", tokens)
        t.call("preprocess.write_lexicon", "preprocess", "write_lexicon", built, lexicon, stats=True)
        self.text_bytes = corpus.stat().st_size

    def train(self, train: Train, lexicon_path: Path):
        t = self.t
        backend = train.backend
        table_path, report_path = Session.artifacts(self.out, backend)
        lexicon = t.call("preprocess.read_lexicon", "preprocess", "read_lexicon", lexicon_path)
        self.lexicon = lexicon
        if backend == "greedy":
            greedy_config = t.lookup("greedy", "GreedyConfig")
            config = greedy_config() if train.threshold is None else greedy_config(threshold=train.threshold)
            clusters = t.call("greedy.cluster_greedy", "greedy", "cluster_greedy", lexicon, config)
            self.greedy.append((len(lexicon.words), clusters))
            table = t.call("greedy.stem_table_from_clusters", "greedy", "stem_table_from_clusters",
                           clusters, order=config.gram_order, threshold=config.threshold)
            t.call("clusters.write_report", "clusters", "write_cluster_report", report_path, clusters)
        else:
            short, mode, order = AP_MODES[backend]
            ap_config = t.lookup("ap", "APConfig")
            config = ap_config() if train.max_iter is None else ap_config(max_iterations=train.max_iter)
            matrix = t.call(f"ap.{short}.matrix", "ap", "build_similarity_matrix", lexicon, mode, config)
            result = t.call(f"ap.{short}.run", "ap", "run_ap", matrix, config)
            self.ap[short] = result
            self.ap_config = config
            clusters = result.clusters
            table = t.call("greedy.stem_table_from_clusters", "greedy", "stem_table_from_clusters",
                           clusters, order=order, threshold=None)
            t.call("clusters.write_report", "clusters", "write_cluster_report", report_path,
                   clusters, exemplars=result.exemplars, mode=result.mode,
                   converged=result.converged, iterations=result.iterations)
        t.call("greedy.write_stem_table", "greedy", "write_stem_table", table, table_path)
        t.call("evaluation.report_stats", "evaluation", "report_stats", clusters)

    def evaluate(self, backend: str, gold_path: Path):
        t = self.t
        report_path = Session.artifacts(self.out, backend)[1]
        clusters, _meta = t.call("clusters.read_report", "clusters", "read_cluster_report", report_path)
        gold = t.call("evaluation.load_gold", "evaluation", "load_gold", gold_path)
        report = t.call("evaluation.score", "evaluation", "score_clusters", clusters, gold)
        text = json.dumps(report.as_dict(), ensure_ascii=False, indent=2) + "\n"
        self.printed[f"evaluate {backend}"] = text.encode("utf-8")

    def stem(self, backend: str, queries: list[str]):
        t = self.t
        table_path = Session.artifacts(self.out, backend)[0]
        table = t.call("greedy.read_stem_table", "greedy", "read_stem_table", table_path)
        stem_word = t.lookup("greedy", "stem_word")
        with t.span("greedy.lookup"):
            stems = [stem_word(table, word) for word in queries]
        self.lookups = len(queries)
        rows = checks.read_table(table_path)[1]
        self.oov = sum(1 for word in queries if word not in rows)
        self.printed["stem"] = "".join(stem + "\n" for stem in stems).encode("utf-8")

    def refuse(self, lexicon_path: Path):
        t = self.t
        lexicon = t.call("preprocess.read_lexicon", "preprocess", "read_lexicon", lexicon_path)
        capacity_error = t.lookup("errors", "CapacityError")
        config = t.lookup("ap", "APConfig")()
        try:
            t.call("ap.refuse", "ap", "build_similarity_matrix", lexicon, "coefficient", config)
        except capacity_error:
            return
        raise RuntimeError("oversized lexicon was not refused")


def replay(session: Session, tracer: Tracer, out: Path) -> tuple[Replay, list[Op]]:
    """Every command of one iteration in-process; one Op per command."""
    w = session.w
    r = Replay(tracer, out)
    lexicon = session.lexicon_path(out)
    steps = []
    if w.preprocess:
        steps.append(("preprocess", lambda: r.preprocess(session.inp("corpus.txt"), lexicon)))
    for train in w.trains:
        steps.append((f"train {train.backend}", lambda train=train: r.train(train, lexicon)))
    for train in w.trains:
        steps.append((f"evaluate {train.backend}",
                      lambda b=train.backend: r.evaluate(b, session.inp("gold.tsv"))))
    steps.append(("stem", lambda: r.stem(w.query_backend, session.queries)))
    steps.append(("refuse", lambda: r.refuse(session.inp("oversized.txt"))))
    ops = []
    for label, step in steps:
        op = Op("traced", label)
        try:
            with tracer.span(f"cmd.{label}"):
                step()
        except Missing as exc:
            print(f"missing {label}: {exc}")
            continue
        except Exception as exc:  # noqa: BLE001 - a failed replay is a failed operation
            op.failures.append(f"{type(exc).__name__}: {exc}")
        ops.append(op)
    return r, ops


def compare_artifacts(cli_out: Path, traced_out: Path, cli_ops: list[Op], r: Replay,
                      ops: list[Op]) -> None:
    """The replay's files and printed results must equal the CLI run's."""
    by_label = {op.label: op for op in ops}
    printed = {op.label: op.stdout for op in cli_ops if op.kind in ("evaluate", "stem")}
    for path in sorted(traced_out.iterdir()):
        label = "preprocess" if path.name == "lexicon.txt" else f"train {path.stem}"
        cli_path = cli_out / path.name
        if label in by_label and not (cli_path.exists() and path.read_bytes() == cli_path.read_bytes()):
            by_label[label].failures.append(f"{path.name} differs from the CLI run's")
    for label, data in r.printed.items():
        if label in by_label and data != printed.get(label):
            by_label[label].failures.append("printed result differs from the CLI run's")


def ap_peaks(r: Replay) -> dict[str, float]:
    """tracemalloc peak of each AP call over n^2 * 8 B, in a pass of its own."""
    if not r.ap:
        return {}
    lexicon = r.lexicon
    ap = importlib.import_module("stemcluster.ap")
    config = r.ap_config
    scale = len(lexicon.words) ** 2 * 8

    def peak(call):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, (tracemalloc.get_traced_memory()[1] - before) / scale

    peaks = {}
    tracemalloc.start()
    try:
        for short, mode, _order in AP_MODES.values():
            if short in r.ap:
                matrix, peaks[f"ap.{short}.matrix_peak_n2"] = peak(
                    lambda: ap.build_similarity_matrix(lexicon, mode, config))
                _result, peaks[f"ap.{short}.run_peak_n2"] = peak(lambda: ap.run_ap(matrix, config))
                del matrix, _result
    finally:
        tracemalloc.stop()
    return peaks


def posting_pairs(words) -> int:
    """Sum over bigrams of m(m-1)/2, m the number of words holding it:
    the word pairs the greedy index can bring together.  Computed here,
    from the lexicon, not measured inside the program."""
    postings: dict[str, int] = {}
    for word in words:
        for gram in {word[i:i + 2] for i in range(len(word) - 1)}:
            postings[gram] = postings.get(gram, 0) + 1
    return sum(m * (m - 1) // 2 for m in postings.values())


# metric: the span whose summed self time it reports
SPAN_METRICS = {
    "preprocess.read_text_s": "preprocess.read_text",
    "preprocess.clean_text_s": "preprocess.clean_text",
    "preprocess.tokenize_s": "preprocess.tokenize",
    "preprocess.build_lexicon_s": "preprocess.build_lexicon",
    "preprocess.write_lexicon_s": "preprocess.write_lexicon",
    "preprocess.read_lexicon_s": "preprocess.read_lexicon",
    "greedy.cluster_s": "greedy.cluster_greedy",
    "greedy.stem_table_s": "greedy.stem_table_from_clusters",
    "greedy.write_stem_table_s": "greedy.write_stem_table",
    "greedy.read_stem_table_s": "greedy.read_stem_table",
    "greedy.lookup_s": "greedy.lookup",
    "ap.coeff.matrix_s": "ap.coeff.matrix",
    "ap.coeff.run_s": "ap.coeff.run",
    "ap.median.matrix_s": "ap.median.matrix",
    "ap.median.run_s": "ap.median.run",
    "ap.refuse_s": "ap.refuse",
    "clusters.write_report_s": "clusters.write_report",
    "clusters.read_report_s": "clusters.read_report",
    "evaluation.load_gold_s": "evaluation.load_gold",
    "evaluation.score_s": "evaluation.score",
    "evaluation.report_stats_s": "evaluation.report_stats",
}


def layer_metrics(tracer: Tracer, r: Replay, cli_wall: float, traced_out: Path) -> dict[str, float]:
    own = tracer.self_times()
    spans = {name: t for name, t in own.items() if not name.startswith("cmd.")}
    m: dict[str, float] = {metric: spans[span] for metric, span in SPAN_METRICS.items()
                           if span in spans}
    for layer in ("preprocess", "greedy", "ap"):
        m[f"{layer}.self_s"] = sum(t for name, t in spans.items() if name.startswith(f"{layer}."))
    if "preprocess.clean_text_s" in m:
        m["preprocess.clean_mb_per_s"] = r.text_bytes / 1e6 / m["preprocess.clean_text_s"]
    if r.lexicon is not None:
        m["preprocess.words"] = len(r.lexicon.words)
        m["preprocess.tokens"] = r.lexicon.total_tokens
        m["ngrams.posting_pairs"] = posting_pairs(r.lexicon.words)
    greedy = r.greedy
    if greedy and "greedy.cluster_s" in m:
        m["greedy.words_per_s"] = sum(n for n, _clusters in greedy) / m["greedy.cluster_s"]
        m["greedy.clusters"] = sum(len(clusters) for _n, clusters in greedy)
        m["greedy.largest_cluster"] = max(len(c.members) for _n, clusters in greedy for c in clusters)
    if "greedy.lookup_s" in m:
        m["greedy.lookups_per_s"] = r.lookups / m["greedy.lookup_s"]
        m["greedy.lookup_oov"] = r.oov

    for short in ("coeff", "median"):
        result = r.ap.get(short)
        m[f"ap.{short}.iterations"] = result.iterations if result else 0
        m[f"ap.{short}.exemplars"] = len(result.exemplars) if result else 0
        if result and f"ap.{short}.run_s" in m:
            m[f"ap.{short}.iteration_s"] = m[f"ap.{short}.run_s"] / result.iterations
    matrix_s = sum(t for name, t in spans.items() if name.startswith("ap.") and name.endswith(".matrix"))
    median_s = spans.get("ap.median.matrix", 0.0) + spans.get("ap.median.run", 0.0)
    ap_s = matrix_s + sum(t for name, t in spans.items() if name.startswith("ap.") and name.endswith(".run"))
    m["ap.matrix_share"] = matrix_s / ap_s if ap_s else 0.0
    m["ap.median_share"] = median_s / ap_s if ap_s else 0.0
    peaks = ap_peaks(r)
    m.update(peaks)
    for kind in ("matrix", "run"):
        m[f"ap.{kind}_peak_n2"] = max((v for k, v in peaks.items() if k.endswith(f".{kind}_peak_n2")),
                                      default=0.0)

    m["clusters.report_mb"] = sum(p.stat().st_size for p in traced_out.glob("*.json")) / 1e6
    m["cli.unaccounted_s"] = cli_wall - sum(spans.values())
    traced_wall = sum(s["end"] - s["start"] for s in tracer.spans if s["name"].startswith("cmd."))
    m["trace.overhead_ratio"] = traced_wall / cli_wall
    return m


def run(session: Session, spans_dir: Path) -> tuple[dict[str, tuple[float, str]], list[Op]]:
    """One CLI iteration, one traced replay, one allocation pass.

    Returns the per-layer metrics with units, and every operation: the
    CLI commands and the replayed ones, each checked against the CLI's.
    """
    setup = session.probe_setup()
    cli_ops, _accuracy = session.iteration(session.out, setup.rss_kib)
    reference = statistics.median(reference_s() for _ in range(REFERENCE_PASSES))
    cli_wall = sum(op.wall_s for op in cli_ops)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    traced_out = session.dir / "traced"
    traced_out.mkdir()
    tracer = Tracer(session.w.name)
    r, ops = replay(session, tracer, traced_out)
    compare_artifacts(session.out, traced_out, cli_ops, r, ops)
    spans_dir.mkdir(exist_ok=True)
    spans = spans_dir / f"spans-{session.w.name}-seed{session.seed}.jsonl"
    tracer.write_jsonl(spans)
    print(f"spans {spans}")

    values = layer_metrics(tracer, r, cli_wall, traced_out)
    values["trace.reference_s"] = reference
    for name, unit in {**PER_LAYER, **DETAIL}.items():
        if name in values:
            shown = f"{values[name]:.6g} {unit}"
        else:
            shown = "missing" if tracer.missing else "n/a"
        print(f"layer {session.w.name} {name}={shown}")
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items() if name in values}
    return metrics, [setup] + cli_ops + ops
