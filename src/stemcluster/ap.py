"""Exemplar clustering by responsibility/availability message passing.

Works on a dense, symmetric word-pair similarity matrix built in one of
two modes: ``coefficient`` (dice over pooled bigram+trigram profiles,
values in [0, 1]) or ``median`` (negated median character-offset
distance, values in [-200, 0]).  The diagonal carries the preference;
higher preferences buy more clusters.  The per-mode range check and the
median preference both read ``SimilarityMatrix.off_diagonal``, a view.

The median matrix is built with array code rather than one
``ngrams.median_offset_distance`` call per pair.  A first-occurrence
table holds, per word, the first position of every character of the
lexicon's alphabet.  Row i gathers only the columns of its own distinct
characters against the later words, takes absolute position offsets,
sorts them along that short axis and reads the median of the shared
ones; the far-distance rules then apply exactly as in the scalar
definition, so every entry equals ``median_offset_distance`` bit for
bit.  Temporaries stay at one [n, m] block per row, m being the row
word's distinct-character count.

Every point starts as a potential exemplar.  Each iteration sends
responsibilities

    r(i,k) <- s(i,k) - max_{k' != k} (a(i,k') + s(i,k'))

then availabilities

    a(i,k) <- min(0, r(k,k) + sum_{i' not in {i,k}} max(0, r(i',k)))   (i != k)
    a(k,k) <- sum_{i' != k} max(0, r(i',k))

each blended as damping*old + (1-damping)*new.  Iteration stops once the
exemplar set {k : r(k,k) + a(k,k) > 0} has been stable for a window of
15 iterations, or at the iteration cap.

``message_passing`` works in one buffer set: it reads S and allocates
R, A and one scratch matrix ``tmp`` once, before the loop.  Each
iteration writes a(i,k)+s(i,k), the new responsibilities and the new
availabilities into ``tmp`` and blends them into R and A in place, in
the same float64 operation order as the textbook update, so the
messages are bitwise those of the version with a fresh temporary per
step.  ``run_ap`` adds one working copy of S for the tie-break below,
so a run allocates about 4 x n^2 x 8 B on top of the matrix, and frees
the copy, R and A before it gathers each point's exemplar similarities;
``PEAK_N2`` is the process peak that the capacity guard reports.

Exactly tied instances (e.g. two identical points with equal preference)
make the messages perfectly symmetric and every self-belief converges to
zero, electing nobody.  To stay deterministic without random noise, the
working copy lowers point k's preference by k * 1e-12 * max|s| before
iterating; the ordering-based tiebreak is far below any meaningful
similarity difference.

Dense [n, n] messages mean quadratic memory, so matrix construction
refuses lexicons beyond ``max_points`` up front instead of dying with a
MemoryError halfway through, and names the peak the run would have had.

numpy is imported inside the functions that build or read arrays, so
loading this module, as the CLI does for every command, does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .clusters import Cluster, select_stem
from .errors import CapacityError, ConfigError, DegenerateClusteringError
from .ngrams import COMBINED, FAR_DISTANCE, MEDIAN, dice_ratio, gram_index
from .preprocess import Lexicon

if TYPE_CHECKING:
    import numpy as np

COEFFICIENT = "coefficient"
# the closed range every off-diagonal similarity of a mode lies in
_RANGES = {COEFFICIENT: (0.0, 1.0), MEDIAN: (-FAR_DISTANCE, 0.0)}
MODES = tuple(_RANGES)

MEDIAN_PREFERENCE = "median"

_TIE_BREAK = 1e-12

# process peak of an AP run in units of n^2 * 8 B: the matrix, run_ap's
# working copy, R, A and tmp.  Peak RSS over a 2-word run, `train
# --max-iter 10` on 3 000 / 6 000 synthetic words: ap-coeff 5.02 / 5.02,
# ap-median 5.04 / 5.01; the largest, rounded up to the next 0.5
PEAK_N2 = 5.5


@dataclass(frozen=True)
class APConfig:
    damping: float = 0.5
    preference: float | str = MEDIAN_PREFERENCE
    max_iterations: int = 200
    max_points: int = 20000

    def __post_init__(self):
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


@dataclass
class SimilarityMatrix:
    words: tuple[str, ...]
    s: np.ndarray
    mode: str

    def __post_init__(self):
        import numpy as np

        self.words = tuple(self.words)
        self.s = np.ascontiguousarray(self.s, dtype=np.float64)
        n = len(self.words)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.s.shape != (n, n):
            raise ConfigError(f"similarity matrix must be {n}x{n}, got {self.s.shape}")
        if not np.array_equal(self.s, self.s.T):
            raise ConfigError("similarity matrix must be symmetric")
        low, high = _RANGES[self.mode]
        off_diagonal = self.off_diagonal()
        if not np.all((off_diagonal >= low) & (off_diagonal <= high)):
            raise ConfigError(f"off-diagonal similarities out of range for mode {self.mode!r}")

    def off_diagonal(self) -> np.ndarray:
        """The off-diagonal entries, row by row, as an [n-1, n] view on ``s``."""
        # in the flat matrix, the n entries after each diagonal one but the last are off it
        n = len(self.words)
        return self.s.reshape(-1)[1:].reshape(max(n - 1, 0), n + 1)[:, :n]


@dataclass
class APResult:
    clusters: list[Cluster]
    exemplars: list[str]
    converged: bool
    iterations: int
    mode: str


def build_similarity_matrix(
    lexicon: Lexicon, mode: str = COEFFICIENT, config: APConfig | None = None
) -> SimilarityMatrix:
    """Dense symmetric similarities with the preference on the diagonal."""
    import numpy as np

    cfg = config or APConfig()
    words = lexicon.words
    n = len(words)
    if n > cfg.max_points:
        raise CapacityError(
            f"lexicon has {n} words but max_points={cfg.max_points}; "
            f"affinity propagation over {n} words would peak near "
            f"{PEAK_N2 * n * n * 8 / 2**30:.1f} GiB ({PEAK_N2} x n^2 x 8 B)"
        )
    if n < 2:
        raise ConfigError("similarity matrix needs at least 2 words")
    if mode == COEFFICIENT:
        s = _coefficient_matrix(words)
    elif mode == MEDIAN:
        s = _median_matrix(words)
    else:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    matrix = SimilarityMatrix(words=words, s=s, mode=mode)
    preference = cfg.preference
    if preference == MEDIAN_PREFERENCE:
        preference = np.median(matrix.off_diagonal())
    np.fill_diagonal(matrix.s, preference)
    return matrix


def _coefficient_matrix(words) -> np.ndarray:
    import numpy as np

    # shared-gram counts via posting lists: a gram seen by m words adds 1 to
    # each of the m*m pairs, so only co-occurring pairs cost anything
    index = gram_index(words, COMBINED)
    sizes = index.sizes
    n = len(sizes)
    common = np.zeros((n, n), dtype=np.int32)
    for posting in index.posting_lists():
        if len(posting) > 1:
            common[np.ix_(posting, posting)] += 1
    return dice_ratio(common, sizes[:, None], sizes[None, :])


def _median_matrix(words) -> np.ndarray:
    import numpy as np

    # first[j, c] is the first position of character c in word j, or
    # ``absent`` when word j lacks it; ``absent`` is so large that every
    # offset against it exceeds any real one and sorts behind it
    n = len(words)
    alphabet = {ch: c for c, ch in enumerate(dict.fromkeys("".join(words)))}
    lengths = np.array([len(word) for word in words], dtype=np.int64)
    longest = int(lengths.max())
    absent = 2 * longest
    first = np.full(
        (n, len(alphabet)), absent, dtype=np.int32 if absent < 2**31 else np.int64
    )
    columns: list[np.ndarray] = []
    for i, word in enumerate(words):
        firsts: dict[str, int] = {}
        for position, ch in enumerate(word):
            firsts.setdefault(ch, position)
        cols = np.array([alphabet[ch] for ch in firsts], dtype=np.intp)
        first[i, cols] = list(firsts.values())
        columns.append(cols)

    s = np.zeros((n, n), dtype=np.float64)
    for i in range(n - 1):
        # offsets to every later word over word i's own characters; after
        # the sort each row starts with its shared offsets, ascending
        cols = columns[i]
        offsets = np.abs(first[i + 1 :, cols] - first[i, cols])
        offsets.sort(axis=1)
        shared = np.count_nonzero(offsets < longest, axis=1)
        flat = offsets.ravel()
        starts = np.arange(0, flat.size, len(cols))
        low = flat[starts + np.maximum(shared - 1, 0) // 2]
        high = flat[starts + shared // 2]
        distance = (low + high) / 2
        far = (
            (shared == 0)
            | (distance > np.minimum(lengths[i], lengths[i + 1 :]))
            | (distance > FAR_DISTANCE)
        )
        row = np.where(far, -FAR_DISTANCE, -distance)
        s[i, i + 1 :] = row
        s[i + 1 :, i] = row
    return s


def message_passing(
    S: np.ndarray,
    damping: float = APConfig.damping,
    max_iterations: int = APConfig.max_iterations,
    convergence_window: int = 15,
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Iterate the damped updates on a raw similarity matrix.

    Returns (R, A, iterations run, converged).  Convergence means a
    non-empty exemplar set unchanged over ``convergence_window``
    consecutive iterations.  S is only read.
    """
    import numpy as np

    n = S.shape[0]
    if S.shape != (n, n) or n < 2:
        raise ConfigError("message passing needs a square matrix over at least 2 points")
    S = np.asarray(S, dtype=np.float64)
    R = np.zeros_like(S)
    A = np.zeros_like(S)
    # tmp holds a(i,k)+s(i,k), then the new responsibilities, then the new
    # availabilities; every step writes in place, so no [n, n] array is
    # allocated inside the loop
    tmp = np.empty_like(S)
    rows = np.arange(n)
    diagonal = slice(None, None, n + 1)
    previous: tuple[int, ...] | None = None
    stable = 0
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        np.add(A, S, out=tmp)
        best = np.argmax(tmp, axis=1)
        first_max = tmp[rows, best]
        tmp[rows, best] = -np.inf
        second_max = tmp.max(axis=1)
        np.subtract(S, first_max[:, None], out=tmp)
        tmp[rows, best] = S[rows, best] - second_max
        R *= damping
        tmp *= 1.0 - damping
        R += tmp

        # the column sums and availabilities follow the textbook operation
        # order; a negated ``tmp -= column_sums`` could flip zeros' signs
        np.maximum(R, 0.0, out=tmp)
        tmp.flat[diagonal] = R.flat[diagonal]
        column_sums = tmp.sum(axis=0)
        np.subtract(column_sums[None, :], tmp, out=tmp)
        self_availability = tmp.flat[diagonal]  # flat slicing copies
        np.minimum(tmp, 0.0, out=tmp)
        tmp.flat[diagonal] = self_availability
        A *= damping
        tmp *= 1.0 - damping
        A += tmp

        exemplars = tuple(np.flatnonzero(R.diagonal() + A.diagonal() > 0.0))
        if exemplars == previous:
            stable += 1
        else:
            stable = 0
        previous = exemplars
        if exemplars and stable >= convergence_window - 1:
            converged = True
            break
    return R, A, iteration, converged


def run_ap(matrix: SimilarityMatrix, config: APConfig | None = None) -> APResult:
    """Cluster the matrix; stems are the shortest members, exemplars reported.

    Raises DegenerateClusteringError when no exemplar emerges; a run that
    merely fails to stabilise comes back with ``converged=False``.
    """
    import numpy as np

    cfg = config or APConfig()
    n = len(matrix.words)
    S = np.array(matrix.s, dtype=np.float64, copy=True)
    scale = float(np.max(np.abs(S)))
    if scale == 0.0:
        scale = 1.0
    S[np.arange(n), np.arange(n)] -= np.arange(n) * scale * _TIE_BREAK
    R, A, iterations, converged = message_passing(S, cfg.damping, cfg.max_iterations)
    beliefs = R.diagonal() + A.diagonal()
    del S, R, A  # free the messages before the n x exemplars gathers below
    exemplar_indices = np.flatnonzero(beliefs > 0.0)
    if exemplar_indices.size == 0:
        raise DegenerateClusteringError(
            "no exemplar emerged (all self-beliefs <= 0); raise the preference value"
        )
    # ties go to the lowest exemplar index: argmax returns the first maximum
    # and exemplar_indices is ascending
    assignment = exemplar_indices[np.argmax(matrix.s[:, exemplar_indices], axis=1)]
    assignment[exemplar_indices] = exemplar_indices
    clusters: list[Cluster] = []
    exemplar_words: list[str] = []
    for k in exemplar_indices:
        member_indices = np.flatnonzero(assignment == k)
        members = tuple(matrix.words[i] for i in member_indices)
        clusters.append(Cluster(stem=select_stem(members), members=members))
        exemplar_words.append(matrix.words[k])
    return APResult(
        clusters=clusters,
        exemplars=exemplar_words,
        converged=converged,
        iterations=iterations,
        mode=matrix.mode,
    )

