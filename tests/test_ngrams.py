import tracemalloc
from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stemcluster import dice
from stemcluster.errors import ConfigError
from stemcluster.ngrams import (
    BIGRAM,
    COMBINED,
    TRIGRAM,
    dice_ratio,
    gram_index,
    gram_set,
)

from helpers import (
    BANGLA_LETTERS,
    dice_oracle,
    distinct_gram_list,
    median_offset_distance,
    synthetic_lexicon,
)

words = st.text(alphabet=st.sampled_from(BANGLA_LETTERS), min_size=2, max_size=14)
orders = st.sampled_from([BIGRAM, TRIGRAM, COMBINED])
# any code point a str can hold: NUL, astral characters and lone surrogates too
hostile_words = st.lists(
    st.one_of(
        st.sampled_from(["\x00", "a", "ক", "\ud800", "\udfff", "\U00020000", "\U0010ffff"]),
        st.characters(min_codepoint=0, max_codepoint=0x10FFFF),
    ),
    max_size=7,
).map("".join)


def assert_index_matches_oracle(word_list, order):
    """``gram_index`` holds the linear-scan gram lists, whatever ids it gives the grams."""
    index = gram_index(word_list, order)
    grams = [distinct_gram_list(word, order) for word in word_list]
    holders: dict[str, list[int]] = {}
    for i, word_grams in enumerate(grams):
        for gram in word_grams:
            holders.setdefault(gram, []).append(i)
    # a gram is known by its posting list
    bounds = index.gram_starts.tolist()
    postings = [tuple(index.postings[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
    assert sorted(postings) == sorted(tuple(words) for words in holders.values())
    assert index.sizes.tolist() == [len(word_grams) for word_grams in grams]
    rows = index.word_starts.tolist()
    assert rows == [0, *accumulate(len(word_grams) for word_grams in grams)]
    for i, word_grams in enumerate(grams):
        row = index.grams[rows[i] : rows[i + 1]].tolist()
        assert sorted(postings[g] for g in row) == sorted(tuple(holders[g]) for g in word_grams)


class TestExtractNgrams:
    def test_bigrams(self):
        assert gram_set("abc", BIGRAM) == {"ab", "bc"}

    def test_duplicates_collapse(self):
        assert gram_set("aaa", BIGRAM) == {"aa"}

    def test_bangla_bigrams_hand_enumerated(self):
        # word = 5 code points; positions 0..3 give 4 distinct bigrams
        word = "বাংলা"
        assert len(word) == 5
        grams = gram_set(word, BIGRAM)
        assert grams == {"বা", "াং", "ংল", "লা"}
        assert len(grams) == 4

    def test_short_word_has_no_trigrams(self):
        assert gram_set("ab", TRIGRAM) == set()

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigError):
            gram_set("abcd", "4")

    @given(words, st.sampled_from([BIGRAM, TRIGRAM]))
    def test_size_bound(self, word, order):
        assert len(gram_set(word, order)) <= max(len(word) - int(order) + 1, 0)


class TestCombinedProfile:
    def test_union_of_both_orders(self):
        assert gram_set("abc", COMBINED) == {"ab", "bc", "abc"}

    def test_length_two_word(self):
        assert gram_set("ab", COMBINED) == {"ab"}

    def test_repeating_word_hand_enumerated(self):
        assert gram_set("abab", COMBINED) == {"ab", "ba", "aba", "bab"}


class TestDice:
    def test_identical_profiles(self):
        assert dice("বাংলা", "বাংলা") == 1.0

    def test_disjoint_profiles(self):
        assert dice("abab", "cdcd") == 0.0

    def test_worked_example(self):
        # 4 distinct bigrams vs 7, sharing all 4 -> 2*4/(4+7)
        g1 = gram_set("বাংলা")
        g2 = gram_set("বাংলাদেশ")
        assert g2 == {"বা", "াং", "ংল", "লা", "াদ", "দে", "েশ"}
        assert len(g1 & g2) == 4
        assert dice("বাংলা", "বাংলাদেশ") == 8 / 11

    def test_both_empty_profiles(self):
        assert dice("ab", "cd", TRIGRAM) == 0.0

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigError):
            dice("abc", "abc", "4")

    @given(words, words, orders)
    def test_symmetric(self, w1, w2, order):
        assert dice(w1, w2, order) == dice(w2, w1, order)

    @given(words, words, orders)
    def test_range(self, w1, w2, order):
        value = dice(w1, w2, order)
        assert 0.0 <= value <= 1.0

    @given(words, orders)
    def test_self_similarity(self, word, order):
        if gram_set(word, order):
            assert dice(word, word, order) == 1.0

    @given(words, words, orders)
    def test_matches_pairwise_oracle_exactly(self, w1, w2, order):
        assert dice(w1, w2, order) == dice_oracle(w1, w2, order)

    def test_ratio_on_arrays_is_scalar_division_bit_for_bit(self):
        # the backends pass int64 count and size arrays; dice passes ints
        sizes = np.arange(1, 300)
        for common in range(0, 300, 23):
            got = dice_ratio(np.int64(common), sizes[:, None], sizes[None, :])
            want = [[2 * common / (a + b) for b in range(1, 300)] for a in range(1, 300)]
            assert got.tolist() == want


class TestGramIndex:
    @given(st.lists(words, max_size=12), orders)
    def test_rows_and_postings_hold_every_profile(self, word_list, order):
        index = gram_index(word_list, order)
        grams = [set(distinct_gram_list(word, order)) for word in word_list]
        rows = [
            set(index.grams[index.word_starts[i] : index.word_starts[i + 1]].tolist())
            for i in range(len(word_list))
        ]
        assert index.sizes.tolist() == [len(g) for g in grams]
        assert [len(row) for row in rows] == [len(g) for g in grams]
        for i, j in combinations(range(len(word_list)), 2):
            assert len(rows[i] & rows[j]) == len(grams[i] & grams[j])
        for gram in range(len(index.gram_starts) - 1):
            posting = index.postings[index.gram_starts[gram] : index.gram_starts[gram + 1]]
            assert posting.tolist() == [i for i, row in enumerate(rows) if gram in row]

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigError):
            gram_index(["ab"], "4")

    @pytest.mark.parametrize("order", [BIGRAM, TRIGRAM, COMBINED])
    @pytest.mark.parametrize(
        "word_list",
        [
            [],
            ["", "a", "ab", "abc", "a"],
            ["\x00\x00", "\U00020000\x00\U00020000\x00", "\ud800\udfff\ud800", "\udfff\ud800",
             "a\U0010ffff\U0010ffffa"],
            ["".join(chr(0x100 + 3 * i + j) for j in range(6)) for i in range(100)],
        ],
        ids=["no words", "shorter than the grams", "astral NUL surrogates", "300 code points"],
    )
    def test_hostile_input_matches_oracle(self, word_list, order):
        assert_index_matches_oracle(word_list, order)

    @given(st.lists(hostile_words, max_size=12), orders)
    def test_any_code_points_match_oracle(self, word_list, order):
        assert_index_matches_oracle(word_list, order)

    def test_no_words_give_empty_arrays(self):
        index = gram_index([], COMBINED)
        assert index.word_starts.tolist() == [0]
        assert index.gram_starts.tolist() == [0]
        assert index.sizes.size == index.grams.size == index.postings.size == 0

    def test_keys_do_not_overflow_for_a_large_alphabet(self):
        # three-letter words over 81 000 code points from U+20000; a key of
        # the form gram * n + word would overflow int64 here
        alphabet, n = 81_000, 27_000
        assert (alphabet**3 + alphabet**2) * n > 2**63
        word_list = ["".join(chr(0x20000 + 3 * i + j) for j in range(3)) for i in range(n)]
        for order in (BIGRAM, TRIGRAM, COMBINED):
            assert_index_matches_oracle(word_list, order)

    @pytest.mark.parametrize("order", [BIGRAM, TRIGRAM, COMBINED])
    def test_build_peak_is_a_few_arrays_of_its_entries(self, order):
        word_list = synthetic_lexicon(2000, seed=3).words
        gram_index(word_list[:50], order)  # numpy's lazy imports
        entries = sum(
            len(word) - size + 1
            for size in {BIGRAM: (2,), TRIGRAM: (3,), COMBINED: (2, 3)}[order]
            for word in word_list
            if len(word) >= size
        )
        tracemalloc.start()
        try:
            gram_index(word_list, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * entries * 8
        assert peak <= bound
        if order != COMBINED:
            # an int64 table over the alphabet's trigrams, or one alphabet row
            # per word, would not fit under the bound on its own
            alphabet = len(set("".join(word_list)))
            assert min(alphabet**3, len(word_list) * alphabet) * 8 > bound


class TestMedianOffsetDistance:
    def test_identical_words(self):
        assert median_offset_distance("বাংলা", "বাংলা") == 0.0

    def test_shifted_overlap_hand_enumerated(self):
        # shared b: |1-0|=1, shared c: |2-1|=1 -> median 1 <= min length 3
        assert median_offset_distance("abc", "bcd") == -1.0

    def test_no_shared_characters(self):
        assert median_offset_distance("abab", "cdcd") == -200.0

    def test_sentinel_when_median_exceeds_shorter_word(self):
        # only shared char sits 4 positions apart; min length is 2
        assert median_offset_distance("ab", "zzzza") == -200.0

    def test_even_count_uses_mean_of_middle_values(self):
        # shared a: |0-1|=1, shared b: |1-3|=2 -> median 1.5
        assert median_offset_distance("ab", "xazb") == -1.5

    @given(words, words)
    def test_symmetric(self, w1, w2):
        assert median_offset_distance(w1, w2) == median_offset_distance(w2, w1)

    @given(words, words)
    def test_range(self, w1, w2):
        value = median_offset_distance(w1, w2)
        assert -200.0 <= value <= 0.0

    @given(words)
    def test_self_distance_zero(self, word):
        assert median_offset_distance(word, word) == 0.0

    @given(words, words)
    def test_zero_iff_shared_offsets_have_zero_median(self, w1, w2):
        shared = sorted(set(w1) & set(w2))
        value = median_offset_distance(w1, w2)
        if not shared:
            assert value == -200.0
            return
        offsets = sorted(abs(w1.index(ch) - w2.index(ch)) for ch in shared)
        middle = len(offsets) // 2
        if len(offsets) % 2:
            independent_median = offsets[middle]
        else:
            independent_median = (offsets[middle - 1] + offsets[middle]) / 2
        assert (value == 0.0) == (independent_median == 0)
