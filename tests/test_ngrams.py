from itertools import combinations

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
    median_offset_distance,
)

from helpers import BANGLA_LETTERS, dice_oracle, distinct_gram_list

words = st.text(alphabet=st.sampled_from(BANGLA_LETTERS), min_size=2, max_size=14)
orders = st.sampled_from([BIGRAM, TRIGRAM, COMBINED])


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
