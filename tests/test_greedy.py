import codecs
import json
import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stemcluster import (
    GreedyConfig,
    build_lexicon,
    cluster_greedy,
    dice,
    read_stem_table,
    stem_table_from_clusters,
    stem_word,
    write_stem_table,
)
from stemcluster import greedy
from stemcluster.clusters import Cluster, read_cluster_report, select_stem, write_cluster_report
from stemcluster.errors import ConfigError, FormatError, PartitionError
from stemcluster.greedy import StemTable
from stemcluster.ngrams import dice_ratio, gram_index, gram_set
from stemcluster.preprocess import clean_text, read_text, tokenize

from helpers import BANGLA_LETTERS, greedy_oracle, random_word, synthetic_lexicon

# live posting entries per block of seeds: one seed per block, a few seeds,
# the default, and the whole lexicon in one block
block_budgets = pytest.mark.parametrize(
    "budget",
    [1, 7, greedy._BLOCK_ENTRIES, sys.maxsize],
    ids=["1", "7", "default", "unbounded"],
)

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


def default_table(clusters):
    return stem_table_from_clusters(clusters, order="2", threshold=0.06)


def naive_cluster(lexicon, config):
    """Straight quadratic scan, no inverted index."""
    pending = list(lexicon.words)
    clusters = []
    while pending:
        seed = pending.pop(0)
        members = [seed]
        remaining = []
        for word in pending:
            if dice(seed, word, config.gram_order) >= config.threshold:
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

    def test_gram_order_rule_is_the_gram_set_rule(self):
        with pytest.raises(ConfigError) as config_err:
            GreedyConfig(gram_order="4")
        with pytest.raises(ConfigError) as gram_err:
            gram_set("ab", "4")
        assert str(config_err.value) == str(gram_err.value)


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

    @block_budgets
    @settings(max_examples=150)
    @given(small_word_lists, st.sampled_from(["2", "3", "2+3"]), st.floats(0.01, 0.95))
    def test_matches_step_simulation_oracle(self, budget, tokens, order, threshold):
        lex = build_lexicon(tokens)
        config = GreedyConfig(gram_order=order, threshold=threshold)
        with mock.patch.object(greedy, "_BLOCK_ENTRIES", budget):
            got = [(c.stem, c.members) for c in cluster_greedy(lex, config)]
        assert got == greedy_oracle(lex.words, order, threshold)

    # order 3 leaves two-letter words without grams: empty seeds, empty hits
    @block_budgets
    @pytest.mark.parametrize("order", ["2", "3", "2+3"])
    @pytest.mark.parametrize("threshold", [0.06, 0.3, 0.6, 0.9])
    def test_matches_naive_scan_on_midsize_lexicon(self, order, threshold, budget):
        rng = random.Random(17)
        lex = build_lexicon([random_word(rng, 2, 9) for _ in range(250)])
        config = GreedyConfig(gram_order=order, threshold=threshold)
        with mock.patch.object(greedy, "_BLOCK_ENTRIES", budget):
            got = cluster_greedy(lex, config)
        assert got == naive_cluster(lex, config)

    # a few letters make most words share grams, so seeds meet posting lists
    # already thinned by earlier clusters
    @block_budgets
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        overlapping_word_lists(),
        st.sampled_from(["2", "3", "2+3"]),
        st.floats(0.4, 0.95),
    )
    def test_matches_oracle_on_overlapping_lexicons(self, budget, tokens, order, threshold):
        lex = build_lexicon(tokens)
        config = GreedyConfig(gram_order=order, threshold=threshold)
        with mock.patch.object(greedy, "_BLOCK_ENTRIES", budget):
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

    @pytest.mark.parametrize("budget", [1, greedy._BLOCK_ENTRIES], ids=["1", "default"])
    def test_counts_only_later_words_inside_the_size_window(self, budget):
        # the clusters cannot show this pruning: the walk skips taken words,
        # and a pair outside the window never qualifies; so read the
        # (seed, other) keys that each block hands to np.unique for counting
        rng = random.Random(5)
        lex = build_lexicon([random_word(rng, 2, 12) for _ in range(300)])
        n, threshold = len(lex.words), 0.6
        counted = []
        unique = np.unique

        def recording_unique(values, **kwargs):
            if kwargs.get("return_counts"):
                counted.append(values.copy())
            return unique(values, **kwargs)

        with mock.patch.object(greedy, "_BLOCK_ENTRIES", budget):
            with mock.patch.object(np, "unique", recording_unique):
                cluster_greedy(lex, GreedyConfig(threshold=threshold))
        keys = np.concatenate(counted)
        seeds, others = keys // n, keys % n
        sizes = gram_index(lex.words).sizes
        a, b = sizes[seeds], sizes[others]
        assert len(keys) > 0
        assert np.all(others > seeds)
        assert np.all(dice_ratio(np.minimum(a, b), a, b) >= threshold)

    def test_block_memory_is_bounded_by_the_budget(self):
        # a block holds a few arrays of its posting entries; reading every
        # seed's postings in one block would hold them all at once
        lex = synthetic_lexicon(2000, seed=3)
        config = GreedyConfig(threshold=0.6)
        cluster_greedy(synthetic_lexicon(50, seed=3), config)  # numpy's lazy imports

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        index_peak = peak(lambda: gram_index(lex.words))
        bound = 32 * greedy._BLOCK_ENTRIES * 8
        assert peak(lambda: cluster_greedy(lex, config)) - index_peak <= bound
        # the lexicon is large enough for the budget to matter
        with mock.patch.object(greedy, "_BLOCK_ENTRIES", sys.maxsize):
            assert peak(lambda: cluster_greedy(lex, config)) - index_peak > 4 * bound


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


class TestClusterInvariants:
    def test_members_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            Cluster(stem="ab", members=("ab", "abc", "ab"))

    def test_stem_must_be_a_member(self):
        with pytest.raises(ValueError, match="not a member"):
            Cluster(stem="ab", members=("abc", "abd"))

    def test_one_string_is_not_a_member_collection(self):
        # tuple() would split it into the members ('a', 'b')
        with pytest.raises(TypeError, match="not one str"):
            Cluster("a", "ab")

    @pytest.mark.parametrize("stem, members", [(1, (1, 2)), (None, ("ab",)), (b"ab", (b"ab",))])
    def test_stem_must_be_a_string(self, stem, members):
        with pytest.raises(TypeError, match="stem must be a str"):
            Cluster(stem, members)

    @pytest.mark.parametrize("members", [("ab", 2), ("ab", None), ("ab", b"abc")])
    def test_members_must_be_strings(self, members):
        with pytest.raises(TypeError, match="members must all be str"):
            Cluster("ab", members)


# the second cluster repeats 'bb' and then 'aa': the first repeated word in
# member order is 'bb', the smallest one 'aa'
SHARED_WORDS = [Cluster("xx", ("xx", "bb", "aa")), Cluster("bb", ("bb", "aa"))]


class TestStemTable:
    def test_expansion(self):
        clusters = [Cluster(stem="ab", members=("ab", "abc"))]
        table = default_table(clusters)
        assert table.entries == {"ab": "ab", "abc": "ab"}
        assert len(table.entries) == 2
        assert len(set(table.entries.values())) == 1

    def test_empty(self):
        table = default_table([])
        assert table.entries == {}
        assert len(set(table.entries.values())) == 0

    def test_overlapping_clusters_rejected(self):
        clusters = [
            Cluster(stem="ab", members=("ab", "abc")),
            Cluster(stem="abc", members=("abc",)),
        ]
        with pytest.raises(PartitionError):
            default_table(clusters)

    def test_overlap_names_the_first_repeated_word_in_member_order(self):
        with pytest.raises(PartitionError, match="word 'bb' appears in more than one cluster"):
            default_table(SHARED_WORDS)

    def test_any_iterable_of_clusters(self):
        clusters = [Cluster(stem="ab", members=("ab", "abc")), Cluster("x", ("x",))]
        assert default_table(iter(clusters)) == default_table(clusters)
        with pytest.raises(PartitionError):
            default_table(iter(SHARED_WORDS))

    def test_stems_self_map(self):
        clusters = cluster_greedy(build_lexicon(["কখ", "কখগ", "ঘঙচ"]))
        table = default_table(clusters)
        for stem in set(table.entries.values()):
            assert table.entries[stem] == stem

    def test_lookup(self):
        table = default_table([Cluster(stem="ab", members=("ab", "abc"))])
        assert stem_word(table, "abc") == "ab"
        assert stem_word(table, "ab") == "ab"
        assert stem_word(table, "zzz") == "zzz"

    def test_round_trip(self, tmp_path):
        lex = build_lexicon(["কখ", "কখগ", "ঘঙ", "ঘঙচদ"])
        config = GreedyConfig(gram_order="2+3", threshold=0.25)
        table = stem_table_from_clusters(
            cluster_greedy(lex, config), order=config.gram_order, threshold=config.threshold
        )
        path = tmp_path / "table.tsv"
        write_stem_table(table, path)
        assert read_stem_table(path) == table

    def test_file_rows_sorted_by_word_with_header(self, tmp_path):
        table = default_table([Cluster(stem="ab", members=("ab", "abc"))])
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "1", "1.5", "-0.2", "abc"])
    def test_threshold_outside_training_range_rejected_at_header(self, tmp_path, value):
        path = tmp_path / "table.tsv"
        path.write_text(f"#stemcluster v1 order=2 threshold={value}\nab\tab\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_stem_table(path)
        assert err.value.line == 1
        assert repr(value) in str(err.value)
        assert "'-'" in str(err.value)
        # the header accepts exactly the thresholds greedy trains with
        if value != "abc":
            with pytest.raises(ConfigError):
                GreedyConfig(threshold=float(value))

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_bytes(
            codecs.BOM_UTF8
            + "#stemcluster v1 order=2 threshold=0.06\nকাজ\tকাজ\nকাজের\tকাজ\n".encode("utf-8")
        )
        table = read_stem_table(path)
        assert table.entries == {"কাজ": "কাজ", "কাজের": "কাজ"}
        assert (table.order, table.threshold) == ("2", 0.06)

    @pytest.mark.parametrize(
        "header",
        [
            "#stemcluster v12 order=2 threshold=0.06",
            "#stemcluster v1order=2 threshold=0.06",
            "#stemcluster v1 ordr=3 bogus",
            "#stemcluster v1 order=2 bogus threshold=0.06",
            "#stemcluster v1 order=2 order=3 threshold=0.06",
            "#stemcluster v1 order=2 threshold=0.06 threshold=0.06",
            "#stemcluster v1 order=2",
            "#stemcluster v1 threshold=0.06 order=2",
        ],
    )
    def test_header_needs_exact_magic_and_known_unique_fields(self, tmp_path, header):
        path = tmp_path / "table.tsv"
        path.write_text(f"{header}\nab\tab\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_stem_table(path)
        assert err.value.line == 1

    def test_missed_query_is_looked_up_by_its_one_cleaned_token(self):
        table = default_table([Cluster(stem="কাজ", members=("কাজ", "কাজের"))])
        assert stem_word(table, "কাজের,") == "কাজ"
        assert table.get("কাজের,") == "কাজ"
        # two tokens, or none, stay unknown and come back unchanged
        assert stem_word(table, "কাজ, কাজের") == "কাজ, কাজের"
        assert stem_word(table, "abc") == "abc"
        assert table.get("কাজ, কাজের") is None

    @pytest.mark.parametrize("order", ["4", "banana", "", "2 "])
    def test_record_refuses_an_unknown_order(self, order):
        with pytest.raises(ConfigError, match="order"):
            StemTable({}, order, 0.06)

    @pytest.mark.parametrize(
        "threshold", [float("nan"), float("inf"), float("-inf"), 0.0, 1.0, 1.5, -0.2]
    )
    def test_record_refuses_a_threshold_greedy_cannot_train_with(self, threshold):
        with pytest.raises(ConfigError, match="threshold"):
            StemTable({}, "2", threshold)

    def test_record_stores_a_numpy_threshold_as_a_float(self):
        table = StemTable({}, "2", np.float32(0.06))
        assert type(table.threshold) is float
        assert table.threshold == float(np.float32(0.06))
        assert StemTable({}, "median", None).threshold is None

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

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(codecs.BOM_UTF8 + '[{"stem":"কাজ","members":["কাজ","কাজের"]}]'.encode("utf-8"))
        loaded, meta = read_cluster_report(path)
        assert loaded == [Cluster(stem="কাজ", members=("কাজ", "কাজের"))]
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

    def test_overlap_names_the_word_the_stem_table_names(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps([c._asdict() for c in SHARED_WORDS]), encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_cluster_report(path)
        assert str(err.value) == f"{path}: word 'bb' appears in more than one cluster"

    def test_malformed_entry_is_reported_before_an_earlier_overlap(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(
            '[{"stem":"ab","members":["ab"]},{"stem":"ab","members":["ab"]},'
            '{"stem":"cd","members":"cd"}]',
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match="bad cluster entry"):
            read_cluster_report(path)

    def test_members_object_rejected(self, tmp_path):
        # tuple() of the object would be its keys, the members ('ab',)
        path = tmp_path / "report.json"
        path.write_text('[{"stem":"ab","members":{"ab":1}}]', encoding="utf-8")
        with pytest.raises(FormatError, match="bad cluster entry"):
            read_cluster_report(path)

    @pytest.mark.parametrize("exemplar_run", [False, True], ids=["plain", "exemplar"])
    @pytest.mark.parametrize(
        "clusters, error",
        [
            (SHARED_WORDS, PartitionError),
            ([Cluster("ab", ("ab",)), Cluster("ab", ("ab",))], PartitionError),
            ([Cluster("ab", ("ab",)), Cluster._make((1, (1, 2)))], TypeError),
            ([Cluster("ab", ("ab",)), Cluster("cd", ("cd",))._replace(members=("cd", 2))],
             TypeError),
            ([Cluster._make(("a", "ab"))], TypeError),
            ([Cluster._make(("ab", ("ab", "ab")))], ValueError),
        ],
        ids=["shared-words", "same-cluster-twice", "int-stem", "int-member", "str-members",
             "repeated-member"],
    )
    def test_writer_refuses_what_its_reader_refuses(self, tmp_path, clusters, error,
                                                      exemplar_run):
        path = tmp_path / "report.json"
        write_cluster_report(path, [Cluster("কাজ", ("কাজ", "কাজের"))])
        before = path.read_bytes()
        run = {}
        if exemplar_run:
            run = dict(exemplars=[c.stem for c in clusters], mode="coefficient",
                       converged=True, iterations=3)
        with pytest.raises(error):
            write_cluster_report(path, iter(clusters), **run)
        # refused before anything is written, so the old report is untouched
        assert path.read_bytes() == before

    def test_writer_takes_any_iterable_of_clusters(self, tmp_path):
        clusters = cluster_greedy(build_lexicon(["কখ", "কখগ", "ঘঙচ"]))
        write_cluster_report(tmp_path / "list.json", clusters)
        write_cluster_report(tmp_path / "iter.json", iter(clusters))
        assert (tmp_path / "iter.json").read_bytes() == (tmp_path / "list.json").read_bytes()
