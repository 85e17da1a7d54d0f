import random
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from contextlib import contextmanager
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
    SimilarityMatrix,
    build_similarity_matrix,
    message_passing,
    run_ap,
)
from stemcluster.config import PEAK_N2
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


def workers_patched(count):
    """Message passing sees ``count`` CPUs and may use them all."""
    return mock.patch.multiple(ap, _cpu_count=lambda: count, _MAX_WORKERS=count)


def random_similarity(rng, n, low=0.0, high=1.0, preference=None):
    values = rng.uniform(low, high, size=(n, n))
    s = (values + values.T) / 2.0
    if preference is None:
        preference = float(np.median(s[~np.eye(n, dtype=bool)]))
    np.fill_diagonal(s, preference)
    return s


def sparse_similarity(rng, n, preference, subnormal=False):
    """A coefficient matrix with about 9% of its pairs nonzero and
    ``preference`` on the diagonal; subnormal similarities are 1 to 3 times
    the smallest, so that messages round to signed zeros."""
    values = (rng.integers(1, 4, size=(n, n)) * 5e-324 if subnormal
              else rng.uniform(0.0, 1.0, size=(n, n)))
    mask = rng.random((n, n)) < 0.7
    s = np.where(mask | mask.T, 0.0, np.minimum(values, values.T))
    np.fill_diagonal(s, preference)
    return s


@contextmanager
def compact_events():
    """Counts the compact layout's events: promoted rows, argmax exception
    entries and runs sent on over dense messages."""
    events = Counter()
    promote, insert, dense = ap._Compact.promote, ap._Compact.insert, ap._dense_passing
    promoting = []

    def count_promote(messages, rows):
        events["promoted"] += len(rows)
        promoting.append(True)
        try:
            return promote(messages, rows)
        finally:
            promoting.pop()

    def count_insert(messages, keys, r, a):
        if not promoting:
            events["exceptions"] += len(keys)
        return insert(messages, keys, r, a)

    def count_dense(S, config, window, start=None, first=1):
        events["switched"] += start is not None
        return dense(S, config, window, start, first)

    with mock.patch.object(ap._Compact, "promote", count_promote), \
            mock.patch.object(ap._Compact, "insert", count_insert), \
            mock.patch.object(ap, "_dense_passing", count_dense):
        yield events


def assert_oracle_bitwise(s, config, on_clip=None):
    R, A, iterations, converged = message_passing(matrix_from(s).store, config)
    R_oracle, A_oracle, oracle_iterations, oracle_converged = message_passing_oracle(
        s, damping=config.damping, max_iterations=config.max_iterations, on_clip=on_clip
    )
    assert R.tobytes() == R_oracle.tobytes()
    assert A.tobytes() == A_oracle.tobytes()
    assert (iterations, converged) == (oracle_iterations, oracle_converged)


# rows per block of message passing and of the stores, capped at n
_block_rows = st.integers(1, 24)


def build_with_block_rows(lexicon, mode, rows):
    rows = min(rows, len(lexicon.words))
    with mock.patch.object(ap, "_BLOCK_BYTES", rows * 8 * len(lexicon.words)):
        return build_similarity_matrix(lexicon, mode)


def assert_default_preference(matrix, s):
    # the diagonal holds np.median of the off-diagonal
    n = len(s)
    assert (matrix.s.diagonal() == np.median(s[~np.eye(n, dtype=bool)])).all()


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

    @pytest.mark.parametrize("mode, peak_n2", [(COEFFICIENT, 3.5), (MEDIAN, 2.5)])
    def test_capacity_boundary(self, mode, peak_n2):
        config = APConfig(max_points=5)
        assert config.check_capacity(5, mode) is None
        with pytest.raises(CapacityError) as err:
            config.check_capacity(6, mode)
        assert str(err.value) == (
            "lexicon has 6 words but max_points=5; affinity propagation over 6 words "
            f"would peak near 0.0 GiB ({peak_n2} x n^2 x 8 B)"
        )


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

    @pytest.mark.parametrize("words", [("a", "a"), (1, 2), ("a", None), ("a", b"b")])
    @pytest.mark.parametrize("mode, store", [(COEFFICIENT, "_Nonzeros"), (MEDIAN, "_Halves")])
    def test_rejects_words_that_are_not_distinct_strings(self, words, mode, store):
        # refused before the store is built, not after a whole run
        with mock.patch.object(getattr(ap, store), "from_dense", side_effect=AssertionError):
            with pytest.raises(ConfigError, match="pairwise distinct strings"):
                SimilarityMatrix(words=words, s=np.zeros((2, 2)), mode=mode)

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

    @pytest.mark.parametrize("value, accepted", [(-1.5, True), (-1.25, False), (-0.75, False),
                                                 (-199.5, True), (-0.25, False)])
    @pytest.mark.parametrize("side", [2, 256])
    def test_median_similarities_are_multiples_of_one_half(self, value, accepted, side):
        # with tiles of side 2 the value sits in an off-diagonal tile
        s = np.full((5, 5), -3.5)
        s[0, 4] = s[4, 0] = value
        s[2, 2] = 0.3  # the preference may be any finite number
        with mock.patch.object(ap, "_BLOCK_BYTES", side * side * 8):
            if accepted:
                assert matrix_from(s, mode=MEDIAN).s.tobytes() == s.tobytes()
                return
            # the refusal comes before anything is stored
            with mock.patch.object(ap._Halves, "from_dense", side_effect=AssertionError):
                with pytest.raises(ConfigError, match="multiples of 0.5"):
                    matrix_from(s, mode=MEDIAN)

    @pytest.mark.parametrize("mode, zero", [(COEFFICIENT, 0.0), (MEDIAN, -0.0)])
    def test_an_off_diagonal_zero_reads_back_as_the_build_writes_it(self, mode, zero):
        s = np.zeros((3, 3))
        s[0, 1] = s[1, 0] = s[2, 2] = -0.0
        for hand_built in (s, -s):
            expected = np.full((3, 3), zero)
            np.fill_diagonal(expected, hand_built.diagonal())  # the diagonal keeps its sign
            assert matrix_from(hand_built, mode=mode).s.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("share", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_coefficient_store_never_outgrows_a_dense_matrix(self, share):
        # a block of rows whose nonzeros, at 12 B each, would take more
        # room than its 8 B entries is stored dense; blocks of 7 rows, and
        # about ``share`` of the pairs nonzero
        n = 64
        rng = np.random.default_rng(5)
        s = random_similarity(rng, n, low=0.01)
        draw = np.triu(rng.random((n, n)), 1)
        zero = draw + draw.T >= share
        np.fill_diagonal(zero, False)
        s[zero] = 0.0
        with mock.patch.object(ap, "_BLOCK_BYTES", 7 * 8 * n):
            matrix = matrix_from(s)
            assert matrix.s.tobytes() == s.tobytes()
        blocks = matrix.store.blocks
        stored = sum(
            block.nbytes if isinstance(block, np.ndarray) else block[0].nbytes + block[1].nbytes
            for block in blocks
        )
        assert stored <= n * n * 8
        dense = sum(isinstance(block, np.ndarray) for block in blocks)
        assert dense == {0.0: 0, 0.3: 0, 0.5: 0, 0.8: len(blocks), 1.0: len(blocks)}[share]


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
    @given(st.lists(_median_words, min_size=2, max_size=16, unique=True), _block_rows)
    @example(["ab", "zzzza"], 1)  # median 4 exceeds the shorter length 2
    @example(["abab", "cdcd"], 2)  # no shared character
    @example(["a" + "b" * 300, "c" * 250 + "a" + "b" * 60], 2)  # median 250 > 200
    # astral characters are one code point each, as in the scalar definition
    @example(["\U00020000a\U0001f600", "a\U00020000", "\U0001f600\U0001f600b", "ba\U00020001"], 3)
    def test_median_matrix_is_scalar_distance_bit_for_bit(self, words, rows):
        lex = build_lexicon(words)
        matrix = build_with_block_rows(lex, MEDIAN, rows)
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
        assert_default_preference(matrix, expected)

    @settings(max_examples=60)
    @given(
        st.integers(3, 6).flatmap(
            lambda size: st.lists(
                st.text(st.sampled_from("কখগঘঙচ"[:size]), min_size=2, max_size=10),
                min_size=2, max_size=24, unique=True,
            )
        ),
        _block_rows,
    )
    # every word shares the prefix, so every posting list of its grams is full
    @example(["কখগ" + tail for tail in ["", "ঘ", "ঙ", "কখ", "ঘঙচ", "চচ", "খগঘ"]], 3)
    @example(["কখ", "গঘ"], 1)  # no nonzero coefficient at all
    def test_coefficient_matrix_is_scalar_dice_bit_for_bit(self, words, rows):
        # few letters, so posting lists are long and words share many grams
        lex = build_lexicon(words)
        matrix = build_with_block_rows(lex, COEFFICIENT, rows)
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
        assert_default_preference(matrix, expected)

    @pytest.mark.parametrize("mode, bound", [(COEFFICIENT, 0.22), (MEDIAN, 0.34)])
    def test_build_peak_is_the_store_and_one_row(self, mode, bound):
        # rows go into the store a block at a time, and the median preference
        # is read from it: coefficient holds 12 B per nonzero, 5.6% of the
        # pairs here, beside its gram index; median holds 2 B per pair
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
        assert peaks[0.0] <= bound
        assert peaks[default] <= bound

    # each mode's legal values: few, so ties are common, and both signs of zero
    @pytest.mark.parametrize(
        "mode, values",
        [(COEFFICIENT, [-0.0, 0.0, 0.25, 0.5, 1.0]), (MEDIAN, [-0.0, 0.0, -0.5, -3.5, -200.0])],
    )
    @given(n=st.integers(2, 9), data=st.data())
    def test_median_preference_is_the_off_diagonal_median(self, mode, values, n, data):
        # n(n-1)/2 upper values, odd or even in number
        m = n * (n - 1) // 2
        upper = data.draw(st.lists(st.sampled_from(values), min_size=m, max_size=m))
        s = np.zeros((n, n))
        s[np.triu_indices(n, 1)] = upper
        s.T[np.triu_indices(n, 1)] = upper
        np.fill_diagonal(s, 7.0)  # not read
        expected = np.median(s[~np.eye(n, dtype=bool)])
        # by value: the sign of a zero may differ, which no cluster can see
        assert matrix_from(s, mode).store.median() == expected

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

    def test_capacity_boundary(self):
        lexicon = build_lexicon(["কখ", "কখগ", "কখগঘ", "গঘ", "গঘঙ", "কগ"])
        n = len(lexicon.words)
        matrix = build_similarity_matrix(lexicon, COEFFICIENT, APConfig(max_points=n))
        assert matrix.s.shape == (n, n)
        with pytest.raises(CapacityError) as err:
            build_similarity_matrix(lexicon, COEFFICIENT, APConfig(max_points=n - 1))
        assert str(err.value) == (
            f"lexicon has {n} words but max_points={n - 1}; affinity propagation over {n} words "
            "would peak near 0.0 GiB (3.5 x n^2 x 8 B)"
        )

    def test_capacity_error_states_estimated_peak(self):
        n = 20_001
        letters = sorted(set(BANGLA_LETTERS))
        lexicon = build_lexicon(["".join(chars) for chars in product(letters, repeat=3)][:n])
        assert len(lexicon.words) == n
        with pytest.raises(CapacityError) as err:
            build_similarity_matrix(lexicon, COEFFICIENT)
        message = str(err.value)
        assert "max_points=20000" in message
        assert f"{PEAK_N2[COEFFICIENT] * n * n * 8 / 2**30:.1f} GiB" in message

    # a prefix common to every word makes every ap-coeff pair share a gram,
    # so each block of its store is dense
    @pytest.mark.parametrize(
        "backend, mode, prefix",
        [("ap-coeff", COEFFICIENT, ""), ("ap-coeff", COEFFICIENT, "কখ"), ("ap-median", MEDIAN, "")],
        ids=["ap-coeff", "ap-coeff-common-prefix", "ap-median"],
    )
    def test_estimated_peak_bounds_measured_process_peak(self, tmp_path, backend, mode, prefix):
        # the guard's estimate must cover what a run really takes: peak RSS
        # of `train` at 3 000 words over that of a 2-word run
        n = 3000

        def peak_bytes(lexicon):
            lexicon = build_lexicon([prefix + word for word in lexicon.words])
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
        assert peak - base <= PEAK_N2[mode] * n * n * 8

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

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_words_is_config_error(self, n):
        # the record accepts these; message passing refuses them
        matrix = SimilarityMatrix(words=("কখ",)[:n], s=np.zeros((n, n)), mode=COEFFICIENT)
        with pytest.raises(ConfigError, match="at least 2 points"):
            run_ap(matrix)

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
        assert np.array_equal(matrix.s, s)  # the tie-break lowered a copy of the diagonal

    # two rows per block, so two workers take a run of blocks each
    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_messages_are_a_config_error_on_every_worker_count(self, workers):
        n = 10
        s = random_similarity(np.random.default_rng(3), n, preference=-1e308)
        with mock.patch.object(ap, "_BLOCK_BYTES", 2 * 8 * n), workers_patched(workers):
            matrix = matrix_from(s)
            with pytest.raises(ConfigError, match="too large"):
                run_ap(matrix)

    def test_an_overflow_in_a_worker_thread_is_a_config_error(self):
        # run_ap's errstate must reach the worker threads: an overflow that
        # only a worker meets is refused as one the calling thread meets
        n = 10
        s = random_similarity(np.random.default_rng(3), n)
        decode = ap._Nonzeros.rows
        threads = set()

        def rows(store, lo, hi, out):
            if threading.current_thread() is not threading.main_thread():
                threads.add(threading.current_thread())
                np.square(np.full(1, 1e200))
            return decode(store, lo, hi, out)

        with mock.patch.object(ap, "_BLOCK_BYTES", 2 * 8 * n), workers_patched(2), \
                mock.patch.object(ap._Nonzeros, "rows", rows):
            matrix = matrix_from(s)
            with pytest.raises(ConfigError, match="too large"):
                run_ap(matrix)
        assert threads

    def test_many_cpus_still_run_at_most_max_workers(self):
        # more workers than were measured would cost a block scratch each
        n = 40
        s = random_similarity(np.random.default_rng(4), n)
        with mock.patch.object(ap, "_BLOCK_BYTES", 2 * 8 * n), \
                mock.patch.object(ap, "_cpu_count", lambda: 64), \
                mock.patch.object(ap, "_workers", wraps=ap._workers) as workers:
            message_passing(ap._Nonzeros.from_dense(s), APConfig(max_iterations=3))
        workers.assert_called_once_with(ap._MAX_WORKERS)
        assert ap._MAX_WORKERS == 2

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
        s[2, 2] = -0.0  # the diagonal keeps a zero's sign
        matrix = matrix_from(s)
        before = matrix.s.tobytes()
        run_ap(matrix)
        assert matrix.s.tobytes() == before

    def test_leaves_the_matrix_unchanged_when_message_passing_raises(self):
        matrix = matrix_from(random_similarity(np.random.default_rng(31), 9))
        before = matrix.s.tobytes()

        def fail(S, *args):
            # the tie-break lowers a copy of the diagonal and shares the rest
            assert S.diagonal is not matrix.store.diagonal
            assert S.blocks is matrix.store.blocks
            raise KeyboardInterrupt

        with mock.patch.object(ap, "_messages", fail):
            with pytest.raises(KeyboardInterrupt):
                run_ap(matrix)
        assert matrix.s.tobytes() == before

    # an off-diagonal maximum, a dominating preference, and an all-zero
    # matrix, whose scale falls back to 1
    @pytest.mark.parametrize(
        "mode, extreme, preference",
        [(COEFFICIENT, 1.0, 0.25), (MEDIAN, -200.0, -3.0),
         (COEFFICIENT, 0.5, 5.0), (MEDIAN, -3.5, -300.0),
         (COEFFICIENT, 0.0, 0.0), (MEDIAN, 0.0, 0.0)],
    )
    def test_tie_break_lowers_point_k_by_k_times_the_scale(self, mode, extreme, preference):
        n = 7
        rng = np.random.default_rng(41)
        s = random_similarity(rng, n, *sorted([0.0, extreme]), preference=preference)
        if mode == MEDIAN:
            s = np.round(s * 2) / 2  # multiples of 0.5 in [extreme, 0]
        s[2, 5] = s[5, 2] = extreme
        matrix = matrix_from(s, mode)
        received = []

        class Received(Exception):
            pass

        def capture(S, config):
            received.append(S)
            raise Received

        with mock.patch.object(ap, "_messages", capture):
            with pytest.raises(Received):
                run_ap(matrix)
        scale = np.abs(matrix.s).max() or 1.0
        expected = matrix.s.diagonal() - np.arange(n) * (scale * ap._TIE_BREAK)
        assert received[0].diagonal.tobytes() == expected.tobytes()
        assert scale == {1.0: 1.0, -200.0: 200.0, 0.5: 5.0, -3.5: 300.0, 0.0: 1.0}[extreme]

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
            R, A, iterations, _ = message_passing(
                ap._Nonzeros.from_dense(s), APConfig(damping=damping, max_iterations=60)
            )
        assert iterations == 60
        assert np.isfinite(R).all()
        assert np.isfinite(A).all()

    def test_rejects_single_point(self):
        with pytest.raises(ConfigError):
            message_passing(ap._Nonzeros.from_dense(np.zeros((1, 1))), APConfig())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("i, j", [(0, 0), (1, 1), (0, 1)])
    def test_rejects_a_non_finite_entry(self, value, i, j):
        # message passing reads only stores, and a store is refused a
        # non-finite entry before anything is stored, in either mode; one
        # would otherwise spread to every message in the first iteration
        s = np.array([[0.5, 0.0], [0.0, 0.5]])
        s[i, j] = s[j, i] = value
        message = "finite" if i == j else "symmetric" if np.isnan(value) else "out of range"
        for mode, store in [(COEFFICIENT, ap._Nonzeros), (MEDIAN, ap._Halves)]:
            with mock.patch.object(store, "from_dense", side_effect=AssertionError):
                with pytest.raises(ConfigError, match=message):
                    matrix_from(s, mode=mode)

    def test_takes_any_array_like(self):
        # through the store that SimilarityMatrix encodes it into
        words = ("a", "b", "c")
        s = [[0.5, 0.9, 0.25], [0.9, 0.5, 0.0], [0.25, 0.0, 0.5]]
        from_list = message_passing(SimilarityMatrix(words, s, COEFFICIENT).store, APConfig())
        from_array = message_passing(
            SimilarityMatrix(words, np.array(s), COEFFICIENT).store, APConfig()
        )
        assert from_list[2:] == from_array[2:]
        assert from_list[0].tobytes() == from_array[0].tobytes()
        assert from_list[1].tobytes() == from_array[1].tobytes()
        for not_square in ([0.5, 0.9], [s, s], 0.5, [[0.5, 0.9]]):
            with pytest.raises(ConfigError, match="must be 3x3"):
                SimilarityMatrix(words, not_square, COEFFICIENT)

    # rows per block: fixed counts, capped at n, and n - 1, which leaves a
    # last block of one row; 40 rows in blocks of 7 end in a block of 5.
    # S is the coefficient store of any finite array, or each mode's store
    # of a hand-built matrix
    @pytest.mark.parametrize(
        "source, block_rows",
        [*(("dense", rows) for rows in [1, 2, 7, "n-1", "n"]),
         *((mode, rows) for mode in [COEFFICIENT, MEDIAN] for rows in [1, 2, "n-1", "n"])],
    )
    # workers: the count of CPUs message passing sees and may use, capped
    # at the number of blocks and at n // 2
    @pytest.mark.parametrize("workers", [1, 2, 3])
    # the constant kind never converges on a dense source, as tied points
    # elect no exemplar: a drawn one stops at 30 iterations, and the first
    # explicit example runs the full cap of 200
    @settings(max_examples=60)
    @given(
        st.integers(2, 40),
        st.sampled_from(["constant", "ties", "spread"]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.5, 0.9]),
        st.just(False),
    )
    @example(n=12, kind="constant", seed=0, damping=0.5, full_cap=True)
    @example(n=40, kind="ties", seed=1, damping=0.9, full_cap=False)
    @example(n=17, kind="spread", seed=2, damping=0.5, full_cap=False)
    def test_in_place_updates_equal_textbook_oracle_bitwise(
        self, workers, source, block_rows, n, kind, seed, damping, full_cap
    ):
        # blocks of one or two rows: at most 20 points, still 10-20 blocks a
        # phase for every worker count, at a fraction of the time of 40
        if block_rows in (1, 2):
            n = min(n, 20)
        rng = np.random.default_rng(seed)
        if kind == "constant":
            s = np.full((n, n), float(rng.integers(-3, 4)))
        else:
            if kind == "ties":
                values = rng.integers(-2, 3, size=(n, n)) / 2.0
            else:
                values = rng.uniform(-5.0, 5.0, size=(n, n))
            s = values + values.T
        if source == COEFFICIENT:
            # in [0, 1], and zero wherever a symmetric mask says so
            mask = rng.random((n, n)) < 0.7
            s = np.where(mask | mask.T, 0.0, np.abs(s) / 10)
        elif source == MEDIAN:
            s = -np.abs(np.round(s * 2) / 2)  # multiples of 0.5 in [-10, 0]
        rows = {"n-1": max(n - 1, 1), "n": n}.get(block_rows, block_rows)
        config = APConfig(damping=damping,
                          max_iterations=30 if kind == "constant" and not full_cap else 200)
        with mock.patch.object(ap, "_BLOCK_BYTES", rows * 8 * n), workers_patched(workers):
            if source == "dense":
                R, A, iterations, converged = message_passing(ap._Nonzeros.from_dense(s), config)
            else:
                matrix = matrix_from(s, mode=source)
                R, A, iterations, converged = message_passing(matrix.store, config)
                # the oracle reads the matrix as stored, where zeros keep no sign
                assert np.array_equal(matrix.s, s)
                s = matrix.s
        R_oracle, A_oracle, oracle_iterations, oracle_converged = message_passing_oracle(
            s, damping=damping, max_iterations=config.max_iterations
        )
        assert R.tobytes() == R_oracle.tobytes()
        assert A.tobytes() == A_oracle.tobytes()
        assert iterations == oracle_iterations
        assert converged == oracle_converged

    # each case of the compact layout, forced on a 20-point coefficient
    # matrix: rows promoted by a negative preference, columns off the store
    # that win a row's argmax, a run that promotions send on over dense
    # messages, past a lowered share constant, and columns whose clipped
    # responsibilities are all zeros with a -0.0 among them, from
    # subnormal similarities and preference.  The compact sums add those
    # terms with bincount, which starts each column at +0.0 as sum(axis=0)
    # does, so such a column sums to +0.0.  No other order of adding them
    # could change a message: a zero sum's sign reaches only
    # min(sum, 0.0), which is +0.0 for -0.0 too, and sum - r(k,k) with
    # r(k,k) = -0.0 among the terms, which is +0.0 either way.  Columns
    # summed from their first explicit term instead gave the oracle's
    # messages in all 77 of 180 seeded runs that met such a column
    @pytest.mark.parametrize(
        "event, preference, share",
        [("promoted", -0.5, 0.5), ("exceptions", 0.0, 0.5), ("switched", -0.5, 0.15),
         ("signed-zero", -5e-324, 0.5)],
    )
    def test_each_compact_case_equals_textbook_oracle_bitwise(self, event, preference, share):
        s = sparse_similarity(np.random.default_rng(0), 20, preference,
                              subnormal=event == "signed-zero")

        def count_signed_zero_columns(clipped):
            zeros = (clipped == 0.0).all(axis=0) & np.signbit(clipped).any(axis=0)
            events["signed-zero"] += np.count_nonzero(zeros)

        with compact_events() as events, mock.patch.object(ap, "_COMPACT_SHARE", share):
            assert_oracle_bitwise(s, APConfig(), count_signed_zero_columns)
        assert events[event] > 0
        assert events["switched"] == (event == "switched")

    @settings(max_examples=40)
    @given(
        st.integers(2, 30),
        st.integers(0, 2**32 - 1),
        st.sampled_from([-0.5, -0.05, 0.0, 0.3, -5e-324, 5e-324]),
        st.booleans(),
        st.sampled_from([0.5, 0.9]),
        st.sampled_from([0.15, 0.5]),
    )
    def test_compact_messages_equal_textbook_oracle_bitwise(
        self, n, seed, preference, subnormal, damping, share
    ):
        s = sparse_similarity(np.random.default_rng(seed), n, preference, subnormal)
        with mock.patch.object(ap, "_COMPACT_SHARE", share):
            assert_oracle_bitwise(s, APConfig(damping=damping, max_iterations=60))

    def test_compact_and_dense_paths_agree_at_1200_words(self):
        matrix = build_similarity_matrix(synthetic_lexicon(1200, seed=3), COEFFICIENT)
        assert matrix.store.stored() <= ap._COMPACT_SHARE * 1200 * 1199
        config = APConfig(max_iterations=30)
        with compact_events() as events:
            compact = message_passing(matrix.store, config)
        assert events["exceptions"] > 0 and not events["switched"]
        with mock.patch.object(ap, "_COMPACT_SHARE", -1.0), \
                mock.patch.object(ap, "_Compact", side_effect=AssertionError):
            dense = message_passing(matrix.store, config)
        assert compact[0].tobytes() == dense[0].tobytes()
        assert compact[1].tobytes() == dense[1].tobytes()
        assert compact[2:] == dense[2:] == (30, False)

    def test_run_on_a_low_share_store_holds_no_dense_messages(self):
        # 5.7% of the pairs share a gram.  The compact messages, about 67 B
        # per explicit entry with their temporaries, the tie-break copy of
        # the diagonal and one decoded block peaked at 0.49 n^2 x 8 B here;
        # dense R and A alone take 2, and the run peaked at 2.16 with them
        n = 1000
        matrix = build_similarity_matrix(synthetic_lexicon(n, seed=3), COEFFICIENT)
        s = matrix.s
        np.fill_diagonal(s, 0.0)
        assert np.count_nonzero(s) < 0.06 * n * (n - 1)
        del s
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_ap(matrix, APConfig(max_iterations=20))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / (n * n * 8) <= 0.6

    def test_a_run_sent_on_over_dense_messages_stays_within_the_bound(self):
        # preference -2 promotes rows until, at iteration 11, the explicit
        # entries (16% of n^2 there) would pass the share constant, and the
        # run goes on over dense R and A.  Their decoding holds R, A and two
        # per-entry arrays beside the store: 2.35 n^2 x 8 B here, and 2.68
        # while the iteration's two per-entry temporaries were still held.
        # At a share of 0.25 it would be about 2.9, within the mode's bound
        n = 1000
        config = APConfig(preference=-2.0, max_iterations=12)
        matrix = build_similarity_matrix(synthetic_lexicon(n, seed=3), COEFFICIENT, config)
        tracemalloc.start()
        try:
            with compact_events() as events:
                start = tracemalloc.get_traced_memory()[0]
                run_ap(matrix, config)
                peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert events["switched"]
        assert peak / (n * n * 8) <= 2.5 < PEAK_N2[COEFFICIENT]

    # each row's first column off its explicit entries, in a given order,
    # is looked for among the order's first _WINDOW columns, and a row that
    # holds all of those counts its sorted ranks instead.  Windows of one
    # and two columns send many rows there; at the default, row 0 holds
    # the first 16 columns of the first order, and a promoted row holds
    # every column and has none off them
    @pytest.mark.parametrize("window", [1, 2, ap._WINDOW])
    def test_first_background_column_is_each_rows_first_column_off_it(self, window):
        n = 40
        rng = np.random.default_rng(6)
        s = sparse_similarity(rng, n, 0.5)
        s[0, 1:25] = s[1:25, 0] = 0.5
        m = ap._Compact(ap._Nonzeros.from_dense(s))
        m.promote(np.array([7]))
        explicit = [set(m.cols[m.starts[i] : m.starts[i + 1]].tolist()) for i in range(n)]
        orders = [np.r_[np.arange(25), 25 + rng.permutation(n - 25)],
                  *(rng.permutation(n) for _ in range(20))]
        held = 0
        for order in orders:
            held += sum(set(order[:window].tolist()) <= row and len(row) < n for row in explicit)
            with mock.patch.object(ap, "_WINDOW", window):
                first = m.first_background(order)
            assert first.tolist() == [next((k for k in order if k not in row), n)
                                      for row in explicit]
        assert held > 0

    @pytest.mark.parametrize("mode", [COEFFICIENT, MEDIAN])
    def test_a_store_reads_at_the_block_size_it_was_built_with(self, mode):
        lex = synthetic_lexicon(30, seed=3)
        n = len(lex.words)
        matrix = build_with_block_rows(lex, mode, 4)
        assert matrix.store.block_rows == 4
        with mock.patch.object(ap, "_BLOCK_BYTES", 7 * 8 * n):
            assert matrix.store.block_rows == 4
            R, A, iterations, converged = message_passing(matrix.store, APConfig())
        R_oracle, A_oracle, oracle_iterations, oracle_converged = message_passing_oracle(matrix.s)
        assert R.tobytes() == R_oracle.tobytes()
        assert A.tobytes() == A_oracle.tobytes()
        assert (iterations, converged) == (oracle_iterations, oracle_converged)

    # one worker holds R, A and one block scratch; each further worker adds
    # its own scratch, about 0.07 n^2 x 8 B at this n
    @pytest.mark.parametrize("workers, bound", [(1, 2.09), (2, 2.16)])
    def test_peak_memory_is_one_buffer_set(self, workers, bound):
        # large enough that the block scratch, about 512 KiB, is a small
        # share of one n x n array
        n = 1000
        s = random_similarity(np.random.default_rng(4), n)
        matrix = matrix_from(s)
        store = ap._Nonzeros.from_dense(s)
        config = APConfig(max_iterations=20)

        def peak_n2(call):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            with workers_patched(workers):
                call()
            return (tracemalloc.get_traced_memory()[1] - start) / (n * n * 8)

        tracemalloc.start()
        try:
            # R, A and the block scratches, into which run_ap decodes the store
            passing = peak_n2(lambda: message_passing(store, config))
            run = peak_n2(lambda: run_ap(matrix, config))
        finally:
            tracemalloc.stop()
        assert passing <= bound
        assert run <= bound

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
        assert run <= bound

    class Failure(Exception):
        pass

    # an error in a worker thread, or an interrupt in the calling one, ends
    # the run: every worker is joined and the error raised, with nothing
    # printed
    @pytest.mark.parametrize("error", [Failure, KeyboardInterrupt])
    @pytest.mark.parametrize("where", ["worker", "caller"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_an_error_in_any_thread_ends_every_worker(self, capfd, workers, where, error):
        n = 12
        s = random_similarity(np.random.default_rng(5), n)
        decode = ap._Nonzeros.rows
        calls = []

        def rows(store, lo, hi, out):
            in_worker = threading.current_thread() is not threading.main_thread()
            calls.append(in_worker)
            if in_worker == (where == "worker") and len(calls) > 3 * n:
                raise error
            return decode(store, lo, hi, out)

        before = threading.active_count()
        with mock.patch.object(ap, "_BLOCK_BYTES", 2 * 8 * n), workers_patched(workers), \
                mock.patch.object(ap._Nonzeros, "rows", rows):
            matrix = matrix_from(s)
            with pytest.raises(error):
                message_passing(matrix.store, APConfig())
        assert threading.active_count() == before
        assert any(calls) and not all(calls)
        assert capfd.readouterr() == ("", "")

    def test_a_thread_that_cannot_start_is_a_memory_error(self):
        n = 12
        s = random_similarity(np.random.default_rng(5), n)
        start = threading.Thread.start
        started = []

        def start_one(thread):
            # the first thread starts, the second cannot
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        before = threading.active_count()
        with mock.patch.object(ap, "_BLOCK_BYTES", 2 * 8 * n), workers_patched(3), \
                mock.patch.object(threading.Thread, "start", start_one):
            store = ap._Nonzeros.from_dense(s)
            with pytest.raises(MemoryError, match="can't start new thread"):
                message_passing(store, APConfig())
        assert len(started) == 1
        assert threading.active_count() == before


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
