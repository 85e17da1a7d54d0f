import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stemcluster import (
    GreedyConfig,
    Cluster,
    build_lexicon,
    build_stem_table,
    cluster_greedy,
    read_stem_table,
    select_stem,
    stem_word,
    write_stem_table,
)
from stemcluster.clusters import read_cluster_report, write_cluster_report
from stemcluster.errors import ConfigError, FormatError, PartitionError
from stemcluster.ngrams import dice, ngram_profile
from stemcluster.preprocess import clean_text, read_text, tokenize

from helpers import BANGLA_LETTERS, greedy_oracle, random_word

small_word_lists = st.lists(
    st.text(alphabet=st.sampled_from(BANGLA_LETTERS), min_size=2, max_size=8),
    max_size=8,
)


@st.composite
def overlapping_word_lists(draw):
    letters = draw(st.lists(st.sampled_from(BANGLA_LETTERS), min_size=3, max_size=6, unique=True))
    return draw(
        st.lists(
            st.text(alphabet=st.sampled_from(letters), min_size=2, max_size=9),
            min_size=50,
            max_size=200,
            unique=True,
        )
    )


def naive_cluster(lexicon, config):
    """Straight quadratic scan, no inverted index."""
    profiles = {w: ngram_profile(w, config.gram_order) for w in lexicon.words}
    pending = list(lexicon.words)
    clusters = []
    while pending:
        seed = pending.pop(0)
        members = [seed]
        remaining = []
        for word in pending:
            if dice(profiles[seed], profiles[word]) >= config.threshold:
                members.append(word)
            else:
                remaining.append(word)
        pending = remaining
        clusters.append(Cluster(stem=select_stem(members), members=tuple(members)))
    return clusters


class TestConfig:
    def test_defaults(self):
        cfg = GreedyConfig()
        assert cfg.threshold == 0.06
        assert cfg.gram_order == "2"

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.2, 1.5])
    def test_threshold_bounds(self, threshold):
        with pytest.raises(ConfigError):
            GreedyConfig(threshold=threshold)

    def test_bad_gram_order(self):
        with pytest.raises(ConfigError):
            GreedyConfig(gram_order="4")


class TestClusterGreedy:
    def test_singleton_lexicon(self):
        lex = build_lexicon(["ab"])
        clusters = cluster_greedy(lex)
        assert clusters == [Cluster(stem="ab", members=("ab",))]

    def test_no_shared_grams_means_singletons(self):
        lex = build_lexicon(["abab", "cdcd"])
        clusters = cluster_greedy(lex, GreedyConfig(threshold=0.06))
        assert [c.members for c in clusters] == [("abab",), ("cdcd",)]

    def test_related_pair_clusters_with_short_stem(self):
        lex = build_lexicon(["বাংলা", "বাংলাদেশ"])
        clusters = cluster_greedy(lex)
        assert len(clusters) == 1
        assert clusters[0].stem == "বাংলা"
        assert set(clusters[0].members) == {"বাংলা", "বাংলাদেশ"}

    def test_empty_lexicon(self):
        assert cluster_greedy(build_lexicon([])) == []

    def test_low_threshold_merges_related_family(self):
        lex = build_lexicon(["aba", "abab", "ababa"])
        clusters = cluster_greedy(lex, GreedyConfig(threshold=0.01))
        assert len(clusters) == 1

    @given(small_word_lists)
    def test_partition_property(self, tokens):
        lex = build_lexicon(tokens)
        clusters = cluster_greedy(lex)
        seen = [w for c in clusters for w in c.members]
        assert sorted(seen) == sorted(lex.words)
        assert len(seen) == len(set(seen))

    @given(small_word_lists)
    def test_stem_minimality(self, tokens):
        lex = build_lexicon(tokens)
        for cluster in cluster_greedy(lex):
            assert all(len(m) >= len(cluster.stem) for m in cluster.members)
            assert cluster.stem == select_stem(cluster.members)

    def test_determinism(self):
        lex = build_lexicon([random_word(random.Random(3), 2, 8) for _ in range(60)])
        assert cluster_greedy(lex) == cluster_greedy(lex)

    @settings(max_examples=150)
    @given(small_word_lists, st.sampled_from(["2", "3", "2+3"]), st.floats(0.01, 0.95))
    def test_matches_step_simulation_oracle(self, tokens, order, threshold):
        lex = build_lexicon(tokens)
        config = GreedyConfig(gram_order=order, threshold=threshold)
        got = [(c.stem, c.members) for c in cluster_greedy(lex, config)]
        assert got == greedy_oracle(lex.words, order, threshold)

    # order 3 leaves two-letter words without grams: empty seeds, empty hits
    @pytest.mark.parametrize("order", ["2", "3", "2+3"])
    @pytest.mark.parametrize("threshold", [0.06, 0.3, 0.6, 0.9])
    def test_matches_naive_scan_on_midsize_lexicon(self, order, threshold):
        rng = random.Random(17)
        lex = build_lexicon([random_word(rng, 2, 9) for _ in range(250)])
        config = GreedyConfig(gram_order=order, threshold=threshold)
        assert cluster_greedy(lex, config) == naive_cluster(lex, config)

    # a few letters make most words share grams, so seeds meet posting lists
    # already thinned by earlier clusters
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        overlapping_word_lists(),
        st.sampled_from(["2", "3", "2+3"]),
        st.floats(0.4, 0.95),
    )
    def test_matches_oracle_on_overlapping_lexicons(self, tokens, order, threshold):
        lex = build_lexicon(tokens)
        config = GreedyConfig(gram_order=order, threshold=threshold)
        got = [(c.stem, c.members) for c in cluster_greedy(lex, config)]
        assert got == greedy_oracle(lex.words, order, threshold)

    def test_threshold_sweep_on_demo_is_monotone(self, demo_corpus):
        lex = build_lexicon(tokenize(clean_text(read_text(demo_corpus))))
        counts = [
            len(cluster_greedy(lex, GreedyConfig(threshold=t)))
            for t in (0.02, 0.06, 0.12, 0.2, 0.35, 0.5, 0.7, 0.9)
        ]
        assert counts == sorted(counts)

    def test_near_one_threshold_gives_singletons(self, demo_corpus):
        lex = build_lexicon(tokenize(clean_text(read_text(demo_corpus))))
        clusters = cluster_greedy(lex, GreedyConfig(threshold=0.999999))
        assert len(clusters) == lex.unique_tokens


class TestSelectStem:
    def test_singleton(self):
        assert select_stem(["abc"]) == "abc"

    def test_shortest_wins(self):
        assert select_stem(["abcd", "abc"]) == "abc"

    def test_length_tie_breaks_lexicographically(self):
        assert select_stem(["ba", "ab"]) == "ab"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_stem([])


class TestStemTable:
    def test_expansion(self):
        clusters = [Cluster(stem="ab", members=("ab", "abc"))]
        table = build_stem_table(clusters)
        assert table.entries == {"ab": "ab", "abc": "ab"}
        assert table.lexicon_size == 2
        assert table.cluster_count == 1

    def test_empty(self):
        table = build_stem_table([])
        assert table.entries == {}
        assert table.cluster_count == 0

    def test_overlapping_clusters_rejected(self):
        clusters = [
            Cluster(stem="ab", members=("ab", "abc")),
            Cluster(stem="abc", members=("abc",)),
        ]
        with pytest.raises(PartitionError):
            build_stem_table(clusters)

    def test_stems_self_map(self):
        clusters = cluster_greedy(build_lexicon(["কখ", "কখগ", "ঘঙচ"]))
        table = build_stem_table(clusters)
        for stem in set(table.entries.values()):
            assert table.entries[stem] == stem

    def test_lookup(self):
        table = build_stem_table([Cluster(stem="ab", members=("ab", "abc"))])
        assert stem_word(table, "abc") == "ab"
        assert stem_word(table, "ab") == "ab"
        assert stem_word(table, "zzz") == "zzz"

    def test_round_trip(self, tmp_path):
        lex = build_lexicon(["কখ", "কখগ", "ঘঙ", "ঘঙচদ"])
        config = GreedyConfig(gram_order="2+3", threshold=0.25)
        table = build_stem_table(cluster_greedy(lex, config), config)
        path = tmp_path / "table.tsv"
        write_stem_table(table, path)
        assert read_stem_table(path) == table

    def test_file_rows_sorted_by_word_with_header(self, tmp_path):
        table = build_stem_table([Cluster(stem="ab", members=("ab", "abc"))])
        path = tmp_path / "table.tsv"
        write_stem_table(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#stemcluster v1 order=2 threshold=0.06"
        assert lines[1:] == ["ab\tab", "abc\tab"]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("ab\tab\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_stem_table(path)
        assert err.value.line == 1

    def test_malformed_row_rejected_with_line(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("#stemcluster v1 order=2 threshold=0.06\nab\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_stem_table(path)
        assert err.value.line == 2

    def test_conflicting_rows_rejected(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text(
            "#stemcluster v1 order=2 threshold=0.06\nab\tab\nab\tba\n", encoding="utf-8"
        )
        with pytest.raises(FormatError) as err:
            read_stem_table(path)
        assert err.value.line == 3


    def test_unknown_order_rejected_at_header(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("#stemcluster v1 order=banana threshold=-\nab\tab\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_stem_table(path)
        assert err.value.line == 1
        assert "banana" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "1", "1.5", "-0.2"])
    def test_threshold_outside_training_range_rejected_at_header(self, tmp_path, value):
        path = tmp_path / "table.tsv"
        path.write_text(f"#stemcluster v1 order=2 threshold={value}\nab\tab\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_stem_table(path)
        assert err.value.line == 1
        assert repr(value) in str(err.value)

    @pytest.mark.parametrize("order", ["2", "3", "2+3", "median"])
    def test_every_trained_order_accepted(self, tmp_path, order):
        path = tmp_path / "table.tsv"
        path.write_text(f"#stemcluster v1 order={order} threshold=-\nab\tab\n", encoding="utf-8")
        assert read_stem_table(path).order == order


class TestClusterReportFiles:
    def test_round_trip_plain(self, tmp_path):
        clusters = cluster_greedy(build_lexicon(["কখ", "কখগ", "ঘঙচ"]))
        path = tmp_path / "report.json"
        write_cluster_report(path, clusters)
        loaded, meta = read_cluster_report(path)
        assert loaded == clusters
        assert meta == {}

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError):
            read_cluster_report(path)

    def test_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"stems": []}', encoding="utf-8")
        with pytest.raises(FormatError):
            read_cluster_report(path)

    def test_word_in_two_clusters_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(
            '[{"stem":"কাজ","members":["কাজ"]},{"stem":"কাজ","members":["কাজ"]}]',
            encoding="utf-8",
        )
        with pytest.raises(FormatError) as err:
            read_cluster_report(path)
        assert "more than one cluster" in str(err.value)

    @pytest.mark.parametrize(
        "entry",
        [
            '{"stem":1,"members":[1,2]}',
            '{"stem":"ab","members":["ab",2]}',
            '{"stem":"a","members":"ab"}',
        ],
    )
    def test_non_string_stem_or_members_rejected(self, tmp_path, entry):
        path = tmp_path / "report.json"
        path.write_text(f"[{entry}]", encoding="utf-8")
        with pytest.raises(FormatError):
            read_cluster_report(path)
