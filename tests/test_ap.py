import random
from statistics import median as stat_median

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stemcluster import build_lexicon
from stemcluster.ap import (
    APConfig,
    COEFFICIENT,
    MEDIAN,
    SimilarityMatrix,
    build_similarity_matrix,
    message_passing,
    run_ap,
)
from stemcluster.errors import CapacityError, ConfigError, DegenerateClusteringError
from stemcluster.evaluation import report_stats
from stemcluster.ngrams import COMBINED, dice, median_offset_distance

from helpers import best_net_similarity, net_similarity, random_word


# few letters, so words repeat characters and share many with each other;
# padding by 190-260 copies of one character pushes offsets past 200
_median_letters = st.sampled_from("কখগাি্অ" + "abcxyz")
_short_words = st.text(_median_letters, min_size=2, max_size=12)
_median_words = st.one_of(
    _short_words,
    st.builds(
        lambda pad, at_front, word: pad + word if at_front else word + pad,
        st.integers(190, 260).map(lambda size: "z" * size),
        st.booleans(),
        _short_words,
    ),
)


def random_similarity(rng, n, low=0.0, high=1.0, preference=None):
    values = rng.uniform(low, high, size=(n, n))
    s = (values + values.T) / 2.0
    if preference is None:
        preference = float(np.median(s[~np.eye(n, dtype=bool)]))
    np.fill_diagonal(s, preference)
    return s


def matrix_from(s, mode=COEFFICIENT):
    n = s.shape[0]
    return SimilarityMatrix(words=tuple(f"w{i:02d}" for i in range(n)), s=s, mode=mode)


class TestConfig:
    def test_defaults(self):
        cfg = APConfig()
        assert cfg.damping == 0.5
        assert cfg.preference == "median"
        assert cfg.max_iterations == 200
        assert cfg.max_points == 20000

    @pytest.mark.parametrize("damping", [0.49, 1.0, -0.5])
    def test_damping_bounds(self, damping):
        with pytest.raises(ConfigError):
            APConfig(damping=damping)

    def test_bad_preference_string(self):
        with pytest.raises(ConfigError):
            APConfig(preference="mean")

    @pytest.mark.parametrize("preference", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_preference_rejected(self, preference):
        with pytest.raises(ConfigError) as err:
            APConfig(preference=preference)
        assert str(preference) in str(err.value)


class TestSimilarityMatrixType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigError):
            matrix_from(np.array([[0.1, 0.2], [0.3, 0.1]]))

    def test_rejects_out_of_range_for_mode(self):
        with pytest.raises(ConfigError):
            matrix_from(np.array([[0.0, 1.5], [1.5, 0.0]]), mode=COEFFICIENT)
        with pytest.raises(ConfigError):
            matrix_from(np.array([[0.0, -201.0], [-201.0, 0.0]]), mode=MEDIAN)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 3, 17])
    def test_off_diagonal_is_a_view_of_the_masked_entries(self, n, order):
        s = np.asarray(random_similarity(np.random.default_rng(n), n, preference=0.5), order=order)
        matrix = matrix_from(s)  # a one-word matrix constructs too
        mask = ~np.eye(n, dtype=bool)
        off_diagonal = matrix.off_diagonal()
        assert np.array_equal(off_diagonal.ravel(), s[mask])
        # symmetry hides the entry order, so write distinct values through
        # ``matrix.s`` and read them back through the same view
        matrix.s[...] = np.arange(n * n).reshape(n, n)
        assert np.array_equal(off_diagonal.ravel(), matrix.s[mask])

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            matrix_from(np.zeros((2, 2)), mode="euclidean")


class TestBuildSimilarityMatrix:
    def test_two_point_construction_with_fixed_preference(self):
        lex = build_lexicon(["কখগ", "কখগঘ"])
        value = dice("কখগ", "কখগঘ", COMBINED)
        matrix = build_similarity_matrix(lex, COEFFICIENT, APConfig(preference=0.25))
        assert np.array_equal(matrix.s, np.array([[0.25, value], [value, 0.25]]))

    def test_median_preference_matches_off_diagonal_median(self):
        lex = build_lexicon(["কখ", "কখগ", "ঘঙচ"])
        matrix = build_similarity_matrix(lex, COEFFICIENT)
        pairwise = [
            dice(a, b, COMBINED)
            for i, a in enumerate(lex.words)
            for b in lex.words[i + 1 :]
        ]
        assert matrix.s[0, 0] == stat_median(pairwise)

    def test_coefficient_entries_match_scalar_dice(self):
        rng = random.Random(5)
        lex = build_lexicon([random_word(rng, 2, 8) for _ in range(40)])
        matrix = build_similarity_matrix(lex, COEFFICIENT)
        for i, a in enumerate(lex.words):
            for j, b in enumerate(lex.words):
                if i != j:
                    assert matrix.s[i, j] == dice(a, b, COMBINED)

    def test_median_entries_match_scalar_distance(self):
        rng = random.Random(6)
        lex = build_lexicon([random_word(rng, 2, 8) for _ in range(25)])
        matrix = build_similarity_matrix(lex, MEDIAN)
        n = len(lex.words)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert matrix.s[i, j] == median_offset_distance(lex.words[i], lex.words[j])

    @settings(max_examples=60)
    @given(st.lists(_median_words, min_size=2, max_size=16, unique=True))
    @example(["ab", "zzzza"])  # median 4 exceeds the shorter length 2
    @example(["abab", "cdcd"])  # no shared character
    @example(["a" + "b" * 300, "c" * 250 + "a" + "b" * 60])  # median 250 > 200
    def test_median_matrix_is_scalar_distance_bit_for_bit(self, words):
        lex = build_lexicon(words)
        matrix = build_similarity_matrix(lex, MEDIAN)
        expected = np.array(
            [
                [
                    matrix.s[i, i] if i == j else median_offset_distance(a, b)
                    for j, b in enumerate(lex.words)
                ]
                for i, a in enumerate(lex.words)
            ]
        )
        assert matrix.s.tobytes() == expected.tobytes()

    def test_symmetry_exhaustive(self):
        rng = random.Random(7)
        lex = build_lexicon([random_word(rng, 2, 9) for _ in range(120)])
        for mode in (COEFFICIENT, MEDIAN):
            matrix = build_similarity_matrix(lex, mode)
            assert np.array_equal(matrix.s, matrix.s.T)

    def test_capacity_guard_names_bound(self):
        lex = build_lexicon([f"কখ{c1}{c2}" for c1 in "গঘঙচছজ" for c2 in "টঠডঢণত"])
        config = APConfig(max_points=10)
        with pytest.raises(CapacityError) as err:
            build_similarity_matrix(lex, COEFFICIENT, config)
        assert "max_points=10" in str(err.value)
        assert str(len(lex.words)) in str(err.value)

    def test_too_few_words_rejected(self):
        with pytest.raises(ConfigError):
            build_similarity_matrix(build_lexicon(["কখ"]), COEFFICIENT)


class TestRunAP:
    def test_two_similar_points_form_one_cluster(self):
        matrix = matrix_from(np.array([[0.1, 0.9], [0.9, 0.1]]))
        result = run_ap(matrix)
        assert result.converged
        assert len(result.clusters) == 1
        assert set(result.clusters[0].members) == {"w00", "w01"}
        assert result.exemplars[0] in {"w00", "w01"}

    def test_two_far_points_stay_apart(self):
        matrix = matrix_from(np.array([[-1.0, -200.0], [-200.0, -1.0]]), mode=MEDIAN)
        result = run_ap(matrix)
        assert result.converged
        assert [set(c.members) for c in result.clusters] == [{"w00"}, {"w01"}]

    def test_high_preference_gives_all_singletons(self):
        rng = np.random.default_rng(3)
        s = random_similarity(rng, 6, preference=5.0)
        result = run_ap(matrix_from(s))
        assert len(result.clusters) == 6

    def test_degenerate_when_no_exemplar_emerges(self):
        matrix = matrix_from(np.array([[0.1, 0.9], [0.9, 0.1]]))
        with pytest.raises(DegenerateClusteringError):
            run_ap(matrix, APConfig(max_iterations=2))

    def test_non_convergence_is_flagged_not_fatal(self):
        matrix = matrix_from(np.array([[-1.0, -200.0], [-200.0, -1.0]]), mode=MEDIAN)
        result = run_ap(matrix, APConfig(max_iterations=5))
        assert not result.converged
        assert result.iterations == 5
        assert len(result.clusters) == 2

    def test_partition_and_exemplar_membership(self):
        rng = np.random.default_rng(11)
        for n in (3, 5, 8, 13):
            s = random_similarity(rng, n)
            result = run_ap(matrix_from(s))
            members = [w for c in result.clusters for w in c.members]
            assert sorted(members) == [f"w{i:02d}" for i in range(n)]
            for cluster, exemplar in zip(result.clusters, result.exemplars):
                assert exemplar in cluster.members
                assert cluster.stem == min(cluster.members, key=lambda w: (len(w), w))

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        s = random_similarity(rng, 10)
        first = run_ap(matrix_from(s))
        second = run_ap(matrix_from(s.copy()))
        assert first.clusters == second.clusters
        assert first.exemplars == second.exemplars
        assert first.iterations == second.iterations

    def test_net_similarity_matches_exhaustive_optimum_on_small_cases(self):
        rng = np.random.default_rng(37)
        hits = 0
        for _ in range(25):
            n = int(rng.integers(2, 7))
            s = random_similarity(rng, n)
            result = run_ap(matrix_from(s))
            exemplar_idx = [int(word[1:]) for word in result.exemplars]
            _, optimum = best_net_similarity(s)
            if net_similarity(s, exemplar_idx) >= optimum - 1e-9:
                hits += 1
        assert hits >= 22

    def test_raising_preference_never_loses_exemplars(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            base = random_similarity(rng, 8)
            off = base[~np.eye(8, dtype=bool)]
            counts = []
            for preference in np.linspace(off.min() - 0.5, off.max() + 0.5, 9):
                s = base.copy()
                np.fill_diagonal(s, preference)
                counts.append(len(run_ap(matrix_from(s)).clusters))
            assert counts == sorted(counts)


class TestMessagePassing:
    @settings(max_examples=20)
    @given(st.integers(0, 10_000), st.floats(0.5, 0.95), st.integers(2, 10))
    def test_messages_stay_finite_for_full_run(self, seed, damping, n):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-5.0, 5.0, size=(n, n))
        s = (values + values.T) / 2.0
        R, A, iterations, _ = message_passing(
            s, damping=damping, max_iterations=60, convergence_window=1000
        )
        assert iterations == 60
        assert np.isfinite(R).all()
        assert np.isfinite(A).all()

    def test_rejects_single_point(self):
        with pytest.raises(ConfigError):
            message_passing(np.zeros((1, 1)))


class TestApStats:
    def test_singletons(self):
        matrix = matrix_from(random_similarity(np.random.default_rng(2), 3, preference=5.0))
        result = run_ap(matrix)
        assert report_stats(result.clusters) == {
            "unique_tokens": 3,
            "total_clusters": 3,
            "size_histogram": {1: 3},
            "reduction_ratio": 1.0,
        }
