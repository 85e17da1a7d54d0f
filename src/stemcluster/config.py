"""The settings of both backends, and the names the command-line parser shows.

``GreedyConfig`` and ``APConfig`` live apart from the backends that read
them, so the parser takes every default from them without loading
``greedy`` or ``ap``.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .errors import ConfigError
from .ngrams import BIGRAM, gram_set

COEFFICIENT = "coefficient"
# the name of the median-offset measure, as an AP mode and a stem-table order
MEDIAN = "median"

MEDIAN_PREFERENCE = "median"


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
