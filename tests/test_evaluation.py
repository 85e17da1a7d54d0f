import random

import pytest

from stemcluster import load_gold, report_stats, score_clusters
from stemcluster.clusters import Cluster
from stemcluster.evaluation import EvalReport, format_table
from stemcluster.errors import FormatError

from helpers import score_oracle


def cluster(*members, stem=None):
    members = tuple(members)
    return Cluster(stem=stem or min(members, key=lambda w: (len(w), w)), members=members)


class TestLoadGold:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("abc\tS1\nabd\tS1\n", encoding="utf-8")
        assert load_gold(path) == {"abc": "S1", "abd": "S1"}

    def test_conflicting_duplicate_rejected_with_line(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("abc\tS1\nabc\tS2\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_gold(path)
        assert err.value.line == 2

    def test_identical_duplicate_allowed(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("abc\tS1\nabc\tS1\n", encoding="utf-8")
        assert load_gold(path) == {"abc": "S1"}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("", encoding="utf-8")
        assert load_gold(path) == {}

    def test_crlf_file_rejected_at_its_first_carriage_return(self, tmp_path):
        # split on LF alone, every label would keep its CR and match no stem
        path = tmp_path / "gold.tsv"
        path.write_bytes("abc\tS1\nabd\tS1\r\nabe\tS1\r\n".encode("utf-8"))
        with pytest.raises(FormatError, match="CRLF line endings") as err:
            load_gold(path)
        assert err.value.line == 2

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("abc S1\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_gold(path)
        assert err.value.line == 1


class TestScoreClusters:
    def test_pure_cluster(self):
        report = score_clusters([cluster("aa", "ab")], {"aa": "S1", "ab": "S1"})
        assert report.total_clusters == 1
        assert report.correct_clusters == 1
        assert report.correct_words == 2
        assert report.accuracy == 1.0
        assert report.uncovered_words == 0

    def test_impure_cluster(self):
        report = score_clusters([cluster("aa", "ab")], {"aa": "S1", "ab": "S2"})
        assert report.correct_clusters == 0
        assert report.accuracy == 0.0

    def test_uncovered_words_do_not_poison(self):
        report = score_clusters([cluster("aa", "ab", "zz")], {"aa": "S1", "ab": "S1"})
        assert report.correct_clusters == 1
        assert report.correct_words == 2
        assert report.uncovered_words == 1

    def test_cluster_with_no_gold_member_is_incorrect(self):
        report = score_clusters([cluster("zz", "zy")], {"aa": "S1"})
        assert report.correct_clusters == 0
        assert report.uncovered_words == 2

    def test_empty_cluster_list(self):
        report = score_clusters([], {"aa": "S1"})
        assert report.total_clusters == 0
        assert report.accuracy == 0.0

    def test_strict_mode_requires_stem_to_match_label(self):
        clusters = [cluster("ab", "abc")]
        gold = {"ab": "ab", "abc": "ab"}
        assert score_clusters(clusters, gold).correct_clusters == 1
        assert score_clusters(clusters, gold, strict=True).correct_clusters == 1
        fragment = [cluster("abcd", "abcde")]
        fragment_gold = {"abcd": "ab", "abcde": "ab"}
        assert score_clusters(fragment, fragment_gold).correct_clusters == 1
        assert score_clusters(fragment, fragment_gold, strict=True).correct_clusters == 0

    def test_reordering_is_irrelevant(self):
        gold = {"aa": "S1", "ab": "S1", "ba": "S2", "bb": "S2", "cc": "S3"}
        clusters = [cluster("aa", "ab"), cluster("ba", "bb", "cc")]
        shuffled = [
            Cluster(stem=clusters[1].stem, members=tuple(reversed(clusters[1].members))),
            clusters[0],
        ]
        assert score_clusters(clusters, gold) == score_clusters(shuffled, gold)

    def test_splitting_a_covered_correct_cluster_keeps_both_parts_correct(self):
        gold = {"aa": "S1", "ab": "S1", "ac": "S1", "ad": "S1"}
        whole = [cluster("aa", "ab", "ac", "ad")]
        parts = [cluster("aa", "ab"), cluster("ac", "ad")]
        assert score_clusters(whole, gold).correct_clusters == 1
        assert score_clusters(parts, gold).correct_clusters == 2

    def test_merging_mixed_labels_makes_incorrect(self):
        gold = {"aa": "S1", "ba": "S2"}
        merged = [cluster("aa", "ba")]
        assert score_clusters(merged, gold).correct_clusters == 0

    def test_matches_pairwise_oracle_on_random_cases(self):
        rng = random.Random(99)
        alphabet = "abcdefgh"
        for _ in range(200):
            words = {f"w{i}{c}" for i in range(rng.randint(1, 12)) for c in alphabet[: rng.randint(1, 4)]}
            words = sorted(words)
            gold = {w: f"L{rng.randint(0, 3)}" for w in words if rng.random() < 0.8}
            clusters = []
            pool = list(words)
            rng.shuffle(pool)
            while pool:
                take = min(len(pool), rng.randint(1, 4))
                chunk, pool = pool[:take], pool[take:]
                clusters.append(cluster(*chunk))
            report = score_clusters(clusters, gold)
            total, correct, correct_words, accuracy = score_oracle(clusters, gold)
            assert (
                report.total_clusters,
                report.correct_clusters,
                report.correct_words,
                report.accuracy,
            ) == (total, correct, correct_words, accuracy)


class TestReportStats:
    def test_all_singletons(self):
        clusters = [cluster("aa"), cluster("ab"), cluster("ac"), cluster("ad")]
        stats = report_stats(clusters)
        assert stats["reduction_ratio"] == 1.0
        assert stats["size_histogram"] == {1: 4}

    def test_single_cluster_of_four(self):
        stats = report_stats([cluster("aa", "ab", "ac", "ad")])
        assert stats["reduction_ratio"] == 0.25
        assert stats["unique_tokens"] == 4
        assert stats["total_clusters"] == 1

    def test_empty(self):
        stats = report_stats([])
        assert stats["reduction_ratio"] == 0.0
        assert stats["total_clusters"] == 0


class TestReportFormatting:
    def test_percent_truncates(self):
        report = EvalReport(
            unique_tokens=11,
            total_clusters=11,
            correct_clusters=8,
            correct_words=8,
            accuracy=8 / 11,
            uncovered_words=0,
        )
        assert report.accuracy_percent() == 72

    def test_table_layout(self):
        report = EvalReport(
            unique_tokens=48,
            total_clusters=11,
            correct_clusters=8,
            correct_words=30,
            accuracy=8 / 11,
            uncovered_words=0,
        )
        table = format_table(report)
        lines = table.splitlines()
        assert lines[0].startswith("Topic")
        assert any(line.startswith("Unique Token") and line.endswith("48") for line in lines)
        assert any(line.startswith("Accuracy") and line.endswith("72%") for line in lines)

    def test_as_dict_includes_percent(self):
        report = EvalReport(1, 1, 1, 1, 1.0, 0)
        payload = report.as_dict()
        assert payload["accuracy_percent"] == 100
        assert set(payload) == {
            "unique_tokens",
            "total_clusters",
            "correct_clusters",
            "correct_words",
            "accuracy",
            "uncovered_words",
            "accuracy_percent",
        }
