import random
import subprocess
import sys
import tracemalloc
from itertools import product
from statistics import median as stat_median
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stemcluster import ap, build_lexicon, write_lexicon
from stemcluster.ap import (
    APConfig,
    COEFFICIENT,
    MEDIAN,
    PEAK_N2,
    SimilarityMatrix,
    build_similarity_matrix,
    message_passing,
    run_ap,
)
from stemcluster.errors import CapacityError, ConfigError, DegenerateClusteringError
from stemcluster.evaluation import report_stats
from stemcluster.ngrams import COMBINED, dice

from helpers import (
    BANGLA_LETTERS,
    best_net_similarity,
    median_offset_distance,
    message_passing_oracle,
    net_similarity,
    random_word,
    src_env,
    synthetic_lexicon,
)


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


# Starts a command and prints its exit code and peak RSS in KiB.  Linux
# folds the RSS of the process that starts a command into the command's
# peak, so a bare interpreter starts it rather than the test process.
_PEAK_PROBE = """
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


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


# Trains both AP backends with the default preference, then prints their
# exit codes and whether numpy.ma was loaded.
_MA_PROBE = """
import sys
from stemcluster.cli import main
lexicon, workdir = sys.argv[1:]
codes = [main(["train", lexicon, "--backend", backend, "--max-iter", "5",
               "--stem-table", workdir + "/t.tsv", "--report", workdir + "/r.json"])
         for backend in ("ap-coeff", "ap-median")]
print(codes, "numpy.ma" in sys.modules)
"""


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

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"max_iterations": 0}, "max_iterations"), ({"max_points": 1}, "max_points")],
    )
    def test_iteration_and_point_minimums(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            APConfig(**kwargs)

    @pytest.mark.parametrize("field", ["max_iterations", "max_points"])
    def test_float_count_rejected(self, field):
        with pytest.raises(TypeError):
            APConfig(**{field: 2.5})

    @pytest.mark.parametrize(
        "field, value",
        [("max_iterations", True), ("max_iterations", np.int64(3)), ("max_points", np.int64(3))],
    )
    def test_integer_count_stored_as_int(self, field, value):
        stored = getattr(APConfig(**{field: value}), field)
        assert type(stored) is int and stored == value


class TestSimilarityMatrixType:
    def test_rejects_non_square(self):
        with pytest.raises(ConfigError, match="2x2"):
            SimilarityMatrix(words=("a", "b"), s=np.zeros((2, 3)), mode=COEFFICIENT)

    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigError):
            matrix_from(np.array([[0.1, 0.2], [0.3, 0.1]]))

    def test_rejects_out_of_range_for_mode(self):
        with pytest.raises(ConfigError):
            matrix_from(np.array([[0.0, 1.5], [1.5, 0.0]]), mode=COEFFICIENT)
        with pytest.raises(ConfigError):
            matrix_from(np.array([[0.0, -201.0], [-201.0, 0.0]]), mode=MEDIAN)

    @pytest.mark.parametrize("side", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize(
        "fault, message",
        [
            ("asymmetric", "symmetric"),
            ("out of range", "out of range"),
            ("nan", "symmetric"),
            ("nan preference", "preference"),
        ],
    )
    # the first row, the last two rows and the lower triangle; by side and n
    # they land in diagonal, off-diagonal and last partial tiles
    @pytest.mark.parametrize("i, j", [(0, 1), (-2, -1), (-1, 0)])
    def test_checks_find_a_fault_in_any_tile(self, side, n, fault, message, i, j):
        # a preference outside [0, 1] is no fault: the diagonal is not range-checked
        s = random_similarity(np.random.default_rng(0), n, preference=-0.5)
        with mock.patch.object(ap, "_BLOCK_BYTES", side * side * 8):
            matrix_from(np.asfortranarray(s))  # copies, in C order
            matrix_from(s[:1, :1])  # one word: a lone diagonal tile
            if fault == "asymmetric":
                s[i, j] = 1.0 - s[j, i] / 2  # still inside [0, 1]
            elif fault == "nan preference":
                s[i, i] = float("nan")
            else:
                s[i, j] = s[j, i] = 1.5 if fault == "out of range" else float("nan")
            with pytest.raises(ConfigError, match=message):
                matrix_from(s)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            matrix_from(np.zeros((2, 2)), mode="euclidean")

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("point", [0, 1, 2])
    @pytest.mark.parametrize("mode", [COEFFICIENT, MEDIAN])
    def test_rejects_a_non_finite_preference_on_the_diagonal(self, value, point, mode):
        s = np.zeros((3, 3))
        s[point, point] = value
        with pytest.raises(ConfigError, match="diagonal .* preference, which must be a finite"):
            SimilarityMatrix(words=("ab", "abc", "xy"), s=s, mode=mode)
        # two words: a nan would otherwise fail the symmetry check first
        with pytest.raises(ConfigError, match="preference"):
            matrix_from(s[:2, :2] if point < 2 else s[1:, 1:], mode=mode)
        # no words: an empty diagonal has no bad entry
        SimilarityMatrix(words=(), s=s[:0, :0], mode=mode)


class TestBuildSimilarityMatrix:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="banana"):
            build_similarity_matrix(build_lexicon(["কখ", "কখগ"]), "banana")

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
    # astral characters are one code point each, as in the scalar definition
    @example(["\U00020000a\U0001f600", "a\U00020000", "\U0001f600\U0001f600b", "ba\U00020001"])
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

    @settings(max_examples=60)
    @given(
        st.integers(3, 6).flatmap(
            lambda size: st.lists(
                st.text(st.sampled_from("কখগঘঙচ"[:size]), min_size=2, max_size=10),
                min_size=2, max_size=24, unique=True,
            )
        )
    )
    # every word shares the prefix, so every posting list of its grams is full
    @example(["কখগ" + tail for tail in ["", "ঘ", "ঙ", "কখ", "ঘঙচ", "চচ", "খগঘ"]])
    def test_coefficient_matrix_is_scalar_dice_bit_for_bit(self, words):
        # few letters, so posting lists are long and words share many grams
        lex = build_lexicon(words)
        matrix = build_similarity_matrix(lex, COEFFICIENT)
        expected = np.array(
            [
                [
                    matrix.s[i, i] if i == j else dice(a, b, COMBINED)
                    for j, b in enumerate(lex.words)
                ]
                for i, a in enumerate(lex.words)
            ]
        )
        assert matrix.s.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", [COEFFICIENT, MEDIAN])
    def test_build_peak_is_the_matrix_and_one_row(self, mode):
        # rows are written as they come and checked in tiles, so a build holds
        # the matrix plus one row's or one tile's temporaries; the median
        # preference adds the upper triangle's copy, 0.5 n^2 x 8 B
        n = 1000
        lex = synthetic_lexicon(n, seed=3)
        default = APConfig().preference
        peaks = {}
        tracemalloc.start()
        try:
            for preference in (0.0, default):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                build_similarity_matrix(lex, mode, APConfig(preference=preference))
                peaks[preference] = (tracemalloc.get_traced_memory()[1] - start) / (n * n * 8)
        finally:
            tracemalloc.stop()
        assert peaks[0.0] <= 1.15
        assert peaks[default] <= 1.6

    @given(n=st.integers(2, 9), data=st.data())
    def test_median_preference_is_the_off_diagonal_median(self, n, data):
        # n(n-1)/2 upper values, odd or even in number; few values, so ties
        # are common, and both signs of zero
        m = n * (n - 1) // 2
        values = st.sampled_from([-0.0, 0.0, 0.25, 1.0, -3.5, -200.0])
        upper = data.draw(st.lists(values, min_size=m, max_size=m))
        s = np.zeros((n, n))
        s[np.triu_indices(n, 1)] = upper
        s.T[np.triu_indices(n, 1)] = upper
        np.fill_diagonal(s, 7.0)  # not read
        expected = np.median(s[~np.eye(n, dtype=bool)])
        # by value: the sign of a zero may differ, which no cluster can see
        assert ap._median_preference(s) == expected

    def test_default_preference_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.median imports numpy.ma on its first call
        lexicon = tmp_path / "lexicon.txt"
        write_lexicon(synthetic_lexicon(40, seed=3), lexicon)
        proc = subprocess.run(
            [sys.executable, "-c", _MA_PROBE, str(lexicon), str(tmp_path)],
            capture_output=True, text=True, encoding="utf-8", env=src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0] False"

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

    def test_capacity_error_states_estimated_peak(self):
        n = 20_001
        letters = sorted(set(BANGLA_LETTERS))
        lexicon = build_lexicon(["".join(chars) for chars in product(letters, repeat=3)][:n])
        assert len(lexicon.words) == n
        with pytest.raises(CapacityError) as err:
            build_similarity_matrix(lexicon, COEFFICIENT)
        message = str(err.value)
        assert "max_points=20000" in message
        assert f"{PEAK_N2 * n * n * 8 / 2**30:.1f} GiB" in message

    @pytest.mark.parametrize("backend", ["ap-coeff", "ap-median"])
    def test_estimated_peak_bounds_measured_process_peak(self, tmp_path, backend):
        # the guard's estimate must cover what a run really takes: peak RSS
        # of `train` at 3 000 words over that of a 2-word run
        n = 3000

        def peak_bytes(lexicon):
            path = tmp_path / f"lexicon-{len(lexicon.words)}.txt"
            write_lexicon(lexicon, path)
            command = [sys.executable, "-m", "stemcluster", "train", str(path),
                       "--backend", backend, "--max-iter", "2",
                       "--stem-table", str(tmp_path / "stems.tsv"),
                       "--report", str(tmp_path / "report.json")]
            proc = subprocess.run(
                [sys.executable, "-c", _PEAK_PROBE, *command],
                capture_output=True, text=True, encoding="utf-8", env=src_env(), timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            code, max_rss_kib = proc.stdout.split()[-2:]
            assert code == "0", proc.stdout
            return int(max_rss_kib) * 1024

        base = peak_bytes(synthetic_lexicon(2, seed=3))
        peak = peak_bytes(synthetic_lexicon(n, seed=3))
        assert peak - base <= PEAK_N2 * n * n * 8

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

    def test_all_zero_matrix_gives_one_cluster(self):
        # max|s| is 0, so the tie-break falls back to a scale of 1
        result = run_ap(matrix_from(np.zeros((5, 5))))
        assert result.converged
        assert [c.members for c in result.clusters] == [tuple(f"w{i:02d}" for i in range(5))]

    def test_huge_preference_gives_singletons_without_overflow(self):
        # the tie-break of point k is k * (max|s| * 1e-12); multiplying k by
        # max|s| first overflowed from point 18 on
        s = random_similarity(np.random.default_rng(3), 20, preference=1e307)
        result = run_ap(matrix_from(s))
        assert [len(c.members) for c in result.clusters] == [1] * 20

    def test_overflowing_messages_are_a_config_error(self):
        s = random_similarity(np.random.default_rng(3), 10, preference=-1e308)
        matrix = matrix_from(s)
        with pytest.raises(ConfigError, match="too large"):
            run_ap(matrix)
        assert np.array_equal(matrix.s, s)  # the diagonal is restored

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

    def test_leaves_the_matrix_unchanged(self):
        s = random_similarity(np.random.default_rng(29), 9)
        s[2, 2] = -0.0  # a zero's sign survives the restore
        matrix = matrix_from(s)
        before = matrix.s.tobytes()
        run_ap(matrix)
        assert matrix.s.tobytes() == before

    def test_leaves_the_matrix_unchanged_when_message_passing_raises(self):
        matrix = matrix_from(random_similarity(np.random.default_rng(31), 9))
        before = matrix.s.tobytes()

        def fail(S, *args):
            assert S is matrix.s  # the tie-break is applied in place
            raise KeyboardInterrupt

        with mock.patch.object(ap, "message_passing", fail):
            with pytest.raises(KeyboardInterrupt):
                run_ap(matrix)
        assert matrix.s.tobytes() == before

    def test_read_only_matrix_runs(self):
        s = random_similarity(np.random.default_rng(37), 8)
        s.flags.writeable = False
        matrix = matrix_from(s)
        result = run_ap(matrix)
        assert result == run_ap(matrix_from(s.copy()))
        assert sorted(w for c in result.clusters for w in c.members) == list(matrix.words)

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
        # a window longer than the cap forces a full run
        with mock.patch.object(ap, "_CONVERGENCE_WINDOW", 1000):
            R, A, iterations, _ = message_passing(s, APConfig(damping=damping, max_iterations=60))
        assert iterations == 60
        assert np.isfinite(R).all()
        assert np.isfinite(A).all()

    def test_rejects_single_point(self):
        with pytest.raises(ConfigError):
            message_passing(np.zeros((1, 1)), APConfig())

    # rows per block: fixed counts, capped at n, and n - 1, which leaves a
    # last block of one row; 40 rows in blocks of 7 end in a block of 5
    @pytest.mark.parametrize("block_rows", [1, 2, 7, "n-1", "n"])
    @settings(max_examples=60)
    @given(
        st.integers(2, 40),
        st.sampled_from(["constant", "ties", "spread"]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.5, 0.9]),
    )
    @example(n=2, kind="constant", seed=0, damping=0.5)
    @example(n=40, kind="ties", seed=1, damping=0.9)
    @example(n=17, kind="spread", seed=2, damping=0.5)
    def test_in_place_updates_equal_textbook_oracle_bitwise(
        self, block_rows, n, kind, seed, damping
    ):
        rng = np.random.default_rng(seed)
        if kind == "constant":
            s = np.full((n, n), float(rng.integers(-3, 4)))
        else:
            if kind == "ties":
                values = rng.integers(-2, 3, size=(n, n)) / 2.0
            else:
                values = rng.uniform(-5.0, 5.0, size=(n, n))
            s = values + values.T
        s_bytes = s.tobytes()
        rows = {"n-1": max(n - 1, 1), "n": n}.get(block_rows, block_rows)
        with mock.patch.object(ap, "_BLOCK_BYTES", rows * 8 * n):
            R, A, iterations, converged = message_passing(s, APConfig(damping=damping))
        assert s.tobytes() == s_bytes
        R_oracle, A_oracle, oracle_iterations, oracle_converged = message_passing_oracle(
            s, damping=damping
        )
        assert R.tobytes() == R_oracle.tobytes()
        assert A.tobytes() == A_oracle.tobytes()
        assert iterations == oracle_iterations
        assert converged == oracle_converged

    def test_peak_memory_is_one_buffer_set(self):
        # large enough that the block scratch, about 512 KiB, is a small
        # share of one n x n array
        n = 1000
        matrix = matrix_from(random_similarity(np.random.default_rng(4), n))
        config = APConfig(max_iterations=20)

        def peak_n2(call):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call()
            return (tracemalloc.get_traced_memory()[1] - start) / (n * n * 8)

        tracemalloc.start()
        try:
            # R, A and the block scratch; run_ap works on the matrix in place
            passing = peak_n2(lambda: message_passing(matrix.s, config))
            run = peak_n2(lambda: run_ap(matrix, config))
        finally:
            tracemalloc.stop()
        assert passing <= 2.1
        assert run <= 2.1

        # every point an exemplar: the n x exemplars gathers of the
        # assignment step must not stack on R and A
        matrix = matrix_from(random_similarity(np.random.default_rng(4), n, preference=5.0))
        results = []
        tracemalloc.start()
        try:
            run = peak_n2(lambda: results.append(run_ap(matrix, config)))
        finally:
            tracemalloc.stop()
        assert len(results[0].exemplars) == n
        assert run <= 2.1


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
