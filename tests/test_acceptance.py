"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each criterion checks the implementation against an independent route
(hand enumeration, brute-force oracle, exhaustive search) at a fixed
tolerance; nothing here is tuned after the fact.
"""

import json
import random
import resource
import time

import numpy as np

from stemcluster import (
    APConfig,
    GreedyConfig,
    build_lexicon,
    cluster_greedy,
    dice,
    score_clusters,
    stem_table_from_clusters,
    write_stem_table,
)
from stemcluster.ap import (
    COEFFICIENT,
    MEDIAN,
    SimilarityMatrix,
    build_similarity_matrix,
    message_passing,
    run_ap,
)
from stemcluster.cli import main as cli_main
from stemcluster.clusters import Cluster, read_cluster_report, write_cluster_report
from stemcluster.errors import CapacityError
from stemcluster.evaluation import format_table, report_stats
from stemcluster.ngrams import gram_set
from stemcluster.preprocess import clean_text, read_lexicon, read_text, tokenize

from helpers import (
    best_net_similarity,
    dice_oracle,
    greedy_oracle,
    net_similarity,
    random_word,
    synthetic_lexicon,
)

GIB = 1024**3


def _verdict(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {number} [{name}]: {status}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def test_criterion_1_dice_property_suite():
    rng = random.Random(101)
    orders = ("2", "3", "2+3")
    failures: list[str] = []
    started = time.perf_counter()
    for case in range(10_000):
        w1 = random_word(rng, 2, 12)
        w2 = random_word(rng, 2, 12)
        order = orders[case % 3]
        g1 = gram_set(w1, order)
        g2 = gram_set(w2, order)
        value = dice(w1, w2, order)
        if value != dice(w2, w1, order):
            failures.append(f"asymmetry for {w1!r}/{w2!r}")
        if not 0.0 <= value <= 1.0:
            failures.append(f"out of range for {w1!r}/{w2!r}")
        if g1 and dice(w1, w1, order) != 1.0:
            failures.append(f"self-similarity != 1 for {w1!r}")
        oracle = dice_oracle(w1, w2, order)
        if value != oracle:
            failures.append(f"oracle mismatch for {w1!r}/{w2!r}: {value} vs {oracle}")
        if not (g1 & g2) and value != 0.0:
            failures.append(f"disjoint pair not 0 for {w1!r}/{w2!r}")
        if failures:
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"suite took {elapsed:.2f}s (limit 10s)")
    _verdict(1, "dice property suite, 10000 pairs", failures)


def test_criterion_2_worked_examples():
    failures: list[str] = []
    value = dice("বাংলা", "বাংলাদেশ")
    if value != 8 / 11:
        failures.append(f"dice gave {value}, hand enumeration gives 8/11")
    lex = build_lexicon(["বাংলা", "বাংলাদেশ"])
    clusters = cluster_greedy(lex, GreedyConfig(threshold=0.06))
    if len(clusters) != 1:
        failures.append(f"expected one cluster, got {len(clusters)}")
    elif clusters[0].stem != "বাংলা":
        failures.append(f"stem should be the shorter word, got {clusters[0].stem!r}")
    _verdict(2, "worked dice + greedy example", failures)


def test_criterion_3_greedy_oracle_equivalence():
    rng = random.Random(303)
    failures: list[str] = []
    for case in range(500):
        tokens = [random_word(rng, 2, 8) for _ in range(rng.randint(0, 8))]
        lex = build_lexicon(tokens)
        order = ("2", "3", "2+3")[case % 3]
        threshold = rng.choice((0.04, 0.06, 0.2, 0.5, 0.8))
        config = GreedyConfig(gram_order=order, threshold=threshold)
        got = [(c.stem, c.members) for c in cluster_greedy(lex, config)]
        expected = greedy_oracle(lex.words, order, threshold)
        if got != expected:
            failures.append(f"case {case}: {got} != {expected}")
            break
    _verdict(3, "greedy vs step-simulation oracle, 500 lexicons", failures)


def _run_pipeline(tmp_path, corpus, tag: str) -> dict[str, bytes]:
    lexicon = tmp_path / f"{tag}-lexicon.txt"
    artifacts: dict[str, bytes] = {}
    assert cli_main(["preprocess", str(corpus), "-o", str(lexicon), "--stats"]) == 0
    artifacts["lexicon"] = lexicon.read_bytes()
    for backend in ("greedy", "ap-coeff", "ap-median"):
        table = tmp_path / f"{tag}-{backend}.tsv"
        report = tmp_path / f"{tag}-{backend}.json"
        assert cli_main([
            "train", str(lexicon),
            "--backend", backend,
            "--stem-table", str(table),
            "--report", str(report),
        ]) == 0
        artifacts[f"{backend}-table"] = table.read_bytes()
        artifacts[f"{backend}-report"] = report.read_bytes()
    return artifacts


def test_criterion_4_partition_and_determinism_on_demo(tmp_path, capsys, demo_corpus):
    first = _run_pipeline(tmp_path, demo_corpus, "one")
    second = _run_pipeline(tmp_path, demo_corpus, "two")
    capsys.readouterr()
    failures: list[str] = []
    if first != second:
        different = [k for k in first if first[k] != second[k]]
        failures.append(f"reruns differ in {different}")
    lexicon_words = [
        line
        for line in first["lexicon"].decode("utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    for backend in ("greedy", "ap-coeff", "ap-median"):
        payload = json.loads(first[f"{backend}-report"].decode("utf-8"))
        entries = payload if isinstance(payload, list) else payload["clusters"]
        members = [w for entry in entries for w in entry["members"]]
        if sorted(members) != sorted(lexicon_words):
            failures.append(f"{backend} output is not a partition of the lexicon")
        if len(members) != len(set(members)):
            failures.append(f"{backend} assigned a word twice")
    _verdict(4, "demo-corpus partitions, byte-identical reruns", failures)


def test_criterion_5_ap_exhaustive_oracle_suite():
    rng = np.random.default_rng(20240811)
    failures: list[str] = []
    agreements = 0
    disagreements: list[str] = []
    unconverged = 0
    for case in range(100):
        n = int(rng.integers(2, 7))
        values = rng.uniform(0.0, 1.0, size=(n, n))
        s = (values + values.T) / 2.0
        np.fill_diagonal(s, np.median(s[~np.eye(n, dtype=bool)]))
        matrix = SimilarityMatrix(
            words=tuple(f"w{i}" for i in range(n)), s=s, mode=COEFFICIENT
        )
        result = run_ap(matrix)
        if not result.converged:
            unconverged += 1
        exemplar_idx = [int(w[1:]) for w in result.exemplars]
        _, optimum = best_net_similarity(s)
        achieved = net_similarity(s, exemplar_idx)
        if achieved >= optimum - 1e-9:
            agreements += 1
        else:
            disagreements.append(
                f"case {case}: n={n} achieved {achieved:.6f} < optimum {optimum:.6f}"
            )
    for line in disagreements:
        print("ap-oracle disagreement:", line)
    if agreements < 90:
        failures.append(f"only {agreements}/100 instances reached the exhaustive optimum")
    if unconverged:
        failures.append(f"{unconverged} instances did not converge within 200 iterations")

    one = run_ap(SimilarityMatrix(("p0", "p1"), np.array([[0.1, 0.9], [0.9, 0.1]]), COEFFICIENT))
    if len(one.clusters) != 1 or set(one.clusters[0].members) != {"p0", "p1"}:
        failures.append("2-point similar example did not form one cluster")
    two = run_ap(
        SimilarityMatrix(("p0", "p1"), np.array([[-1.0, -200.0], [-200.0, -1.0]]), MEDIAN)
    )
    if [set(c.members) for c in two.clusters] != [{"p0"}, {"p1"}]:
        failures.append("2-point sentinel example did not give two singletons")
    print(f"ap-oracle agreement: {agreements}/100, unconverged: {unconverged}")
    _verdict(5, "ap vs exhaustive search, 100 matrices", failures)


def test_criterion_6_capacity_guard_and_scale(tmp_path):
    failures: list[str] = []

    big = synthetic_lexicon(25_000, seed=29)
    try:
        build_similarity_matrix(big, COEFFICIENT, APConfig())
        failures.append("25000-word lexicon was not rejected")
    except CapacityError as err:
        if "max_points=20000" not in str(err):
            failures.append(f"capacity error does not name the bound: {err}")

    dense_scale = synthetic_lexicon(5_540, seed=7)
    matrix = build_similarity_matrix(dense_scale, COEFFICIENT, APConfig())
    R, A, _, _ = message_passing(matrix.s, APConfig(max_iterations=2))
    if not (np.isfinite(R).all() and np.isfinite(A).all()):
        failures.append("message matrices not finite at 5540 points")
    peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    if peak_bytes >= 4 * GIB:
        failures.append(f"peak RSS {peak_bytes / GIB:.2f} GiB exceeds 4 GiB")
    del R, A, matrix

    started = time.perf_counter()
    table_scale = synthetic_lexicon(10_133, seed=11)
    config = GreedyConfig()
    clusters = cluster_greedy(table_scale, config)
    table = stem_table_from_clusters(
        clusters, order=config.gram_order, threshold=config.threshold
    )
    write_stem_table(table, tmp_path / "scale.tsv")
    write_cluster_report(tmp_path / "scale.json", clusters)
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"greedy end-to-end at 10133 words took {elapsed:.1f}s (limit 60s)")
    if len(table.entries) != 10_133:
        failures.append("greedy run lost words")
    print(f"scale: 5540-point matrix ok, peak {peak_bytes / GIB:.2f} GiB; "
          f"greedy 10133 words in {elapsed:.1f}s -> {len(clusters)} clusters")
    _verdict(6, "capacity guard and scale bounds", failures)


def test_criterion_7_evaluation_arithmetic():
    failures: list[str] = []
    clusters = []
    gold = {}
    for i in range(5_972):
        a, b = f"wa{i:05d}", f"wb{i:05d}"
        clusters.append(Cluster(stem=a, members=(a, b)))
        if i < 5_238:
            gold[a] = gold[b] = f"L{i:05d}"
        else:
            gold[a] = f"L{i:05d}x"
            gold[b] = f"L{i:05d}y"
    report = score_clusters(clusters, gold)
    if report.total_clusters != 5_972 or report.correct_clusters != 5_238:
        failures.append(
            f"counts off: {report.total_clusters} clusters, {report.correct_clusters} correct"
        )
    if abs(report.accuracy - 5_238 / 5_972) > 1e-12:
        failures.append(f"accuracy {report.accuracy!r} not within 1e-12 of 5238/5972")
    if report.accuracy_percent() != 87:
        failures.append(f"percent display {report.accuracy_percent()} != 87")
    if "87%" not in format_table(report):
        failures.append("table output does not show 87%")
    _verdict(7, "cluster-accuracy arithmetic at known scale", failures)


def test_criterion_8_pipeline_shape(demo_corpus):
    failures: list[str] = []
    tokens = tokenize(clean_text(read_text(demo_corpus)))
    lex = build_lexicon(tokens)
    if lex.unique_tokens > lex.total_tokens:
        failures.append("unique exceeds total")
    greedy_clusters = cluster_greedy(lex)
    runs = {"greedy": greedy_clusters}
    for mode in (COEFFICIENT, MEDIAN):
        runs[mode] = run_ap(build_similarity_matrix(lex, mode)).clusters
    for name, clusters in runs.items():
        stats = report_stats(clusters)
        if stats["total_clusters"] > lex.unique_tokens:
            failures.append(f"{name}: more clusters than words")
        ratio = stats["reduction_ratio"]
        if not 0.0 < ratio <= 1.0:
            failures.append(f"{name}: reduction ratio {ratio} outside (0, 1]")
    _verdict(8, "pipeline shape bounds", failures)
