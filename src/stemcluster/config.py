"""The settings of both backends, and the names the command-line parser shows.

``GreedyConfig`` and ``APConfig`` live apart from the backends that read
them, so the parser takes every default from them without loading
``greedy`` or ``ap``.  The AP memory estimate and the capacity guard live
here too, so ``train`` refuses an oversized lexicon before it loads ``ap``.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .errors import CapacityError, ConfigError
from .ngrams import BIGRAM, gram_set

COEFFICIENT = "coefficient"
# the name of the median-offset measure, as an AP mode and a stem-table order
MEDIAN = "median"

MEDIAN_PREFERENCE = "median"

# process peak of an AP run in units of n^2 * 8 B, per mode: R and A, the
# similarity store and the block scratch.  Peak RSS over a 2-word run,
# `train --max-iter 10` at 3 000 / 6 000 words, rounded up to the next 0.5.
# ap-median stores 2 B per pair, whatever the words: 2.28 / 2.26 on
# synthetic words.  ap-coeff stores 12 B per pair that shares a gram, and a
# block of rows as dense float64 once that is smaller, so its store grows
# with the share d of such pairs up to 1.0 n^2 x 8 B at d = 2/3.  Synthetic
# words (d = 5-9%) read 2.11 / 2.10, but the demo lexicon has d = 17% and no
# real lexicon of realistic size has been measured, so ap-coeff's estimate
# is its bound, every block dense: the synthetic words behind one common
# prefix read 3.05 / 3.02.  Since ap-coeff holds the messages of a store
# with at most a quarter of its pairs compactly, its typical run is far
# below that bound: 0.49 in process at 1 000 synthetic words (d = 5.7%),
# against 2.16 with dense messages.  The bound stays: a store past the
# quarter, or a run whose promoted rows take it there, holds dense R and A.
# Such a run peaks while it decodes them from the compact messages: 2.35 in
# process at those words and preference -2, and by count about 2.9 at most
PEAK_N2 = {COEFFICIENT: 3.5, MEDIAN: 2.5}


def estimated_peak(n: int, mode: str) -> str:
    """The estimated process peak of an AP run in ``mode`` over ``n`` words, for messages."""
    peak_n2 = PEAK_N2[mode]
    return (
        f"affinity propagation over {n} words would peak near "
        f"{peak_n2 * n * n * 8 / 2**30:.1f} GiB ({peak_n2} x n^2 x 8 B)"
    )


class GreedyConfig(namedtuple("GreedyConfig", "gram_order threshold")):
    __slots__ = ()

    def __new__(cls, gram_order: str = BIGRAM, threshold: float = 0.06):
        self = super().__new__(cls, gram_order, threshold)
        gram_set("", self.gram_order)  # refuses an unknown order
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie strictly between 0 and 1, got {self.threshold}")
        return self


class APConfig(namedtuple("APConfig", "damping preference max_iterations max_points")):
    """AP settings.  ``max_iterations`` and ``max_points`` are stored as
    ``operator.index`` gives them, so a float is a ``TypeError`` and a bool
    or numpy integer an int."""

    __slots__ = ()

    def __new__(cls, damping: float = 0.5, preference: float | str = MEDIAN_PREFERENCE,
                max_iterations: int = 200, max_points: int = 20000):
        self = super().__new__(
            cls, damping, preference, operator.index(max_iterations), operator.index(max_points)
        )
        if not 0.5 <= self.damping < 1.0:
            raise ConfigError(f"damping must lie in [0.5, 1), got {self.damping}")
        if isinstance(self.preference, str):
            if self.preference != MEDIAN_PREFERENCE:
                raise ConfigError(
                    f"preference must be a number or 'median', got {self.preference!r}"
                )
        elif not math.isfinite(self.preference):
            raise ConfigError(f"preference must be a finite number, got {self.preference}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")
        if self.max_points < 2:
            raise ConfigError("max_points must be at least 2")
        return self

    def check_capacity(self, n: int, mode: str) -> None:
        """Refuse an AP run in ``mode`` over ``n`` words beyond ``max_points``, naming its peak."""
        if n > self.max_points:
            raise CapacityError(
                f"lexicon has {n} words but max_points={self.max_points}; "
                f"{estimated_peak(n, mode)}"
            )
