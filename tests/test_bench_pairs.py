import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


class TestSummary:
    def test_quartiles_wins_and_median_paired_difference(self):
        s = bench_pairs.summary([10, 11, 12, 13, 14], [8, 9, 10, 11, 15], "lower", 0.2)
        assert s["parent_quartiles"] == [11, 12, 13]
        assert s["change_quartiles"] == [9, 10, 11]
        assert s["parent_spread"] == 2
        assert (s["won"], s["lost"]) == (4, 1)
        assert s["median_paired_difference"] == -2
        # 4 of 5 pairs is short of nine tenths, and the spread exceeds the bound
        assert s["verdict"] == "unresolved"

    @pytest.mark.parametrize(
        "parent, change, better, bound, verdict",
        [
            # won every pair, and the medians differ by 3 against a spread of 2
            ([10, 11, 12, 13, 14], [7, 8, 9, 10, 11], "lower", 0.2, "better"),
            ([10, 11, 12, 13, 14], [13, 14, 15, 16, 17], "higher", 0.2, "better"),
            # won every pair, but by less than the spread
            ([10, 11, 12, 13, 14], [9, 10, 11, 12, 13], "lower", 5.0, "within bound"),
            ([10, 10, 10, 10], [11, 11, 11, 11], "lower", 0.5, "worse"),
            ([10, 10, 10, 10], [9, 9, 9, 9], "higher", 0.5, "worse"),
            ([10, 10, 10, 10], [10.25, 10.25, 10.25, 10.25], "lower", 0.5, "within bound"),
            # a spread of 2 against a bound of 0.5: lost every pair, the
            # medians 10 apart, past the spread and the bound
            ([10, 11, 12, 13, 14], [20, 21, 22, 23, 24], "lower", 0.5, "worse"),
            ([10, 11, 12, 13, 14], [0, 1, 2, 3, 4], "higher", 0.5, "worse"),
            # lost every pair, but the medians are 1.5 apart, within the spread
            ([10, 11, 12, 13, 14], [11.5, 12.5, 13.5, 14.5, 15.5], "lower", 0.5, "unresolved"),
            # a spread of 7.8: every run of the change beats every run of the
            # parent, by less than the spread at the median
            ([10, 10.1, 14, 17.9, 18], [9, 9, 9, 9, 9], "lower", 0.5, "within bound"),
            ([10, 10.1, 14, 17.9, 18], [19, 19, 19, 19, 19], "higher", 0.5, "within bound"),
        ],
    )
    def test_verdict(self, parent, change, better, bound, verdict):
        assert bench_pairs.summary(parent, change, better, bound)["verdict"] == verdict

    def test_ties_count_for_neither_side(self):
        s = bench_pairs.summary([1, 2, 3, 4], [1, 2, 3, 4], "lower", 0.1)
        assert (s["won"], s["lost"], s["median_paired_difference"]) == (0, 0, 0)
