"""Exemplar clustering by responsibility/availability message passing.

Works on a dense, symmetric word-pair similarity matrix built in one of
two modes: ``coefficient`` (dice over pooled bigram+trigram profiles,
values in [0, 1]) or ``median`` (negated median character-offset
distance, values in [-200, 0]).  The diagonal carries the preference;
higher preferences buy more clusters.  ``SimilarityMatrix`` checks
symmetry and range in one pass over square tiles of the upper triangle,
each of ``_BLOCK_BYTES`` and compared with its mirror tile, so the check
adds no n x n temporary.  The median preference partitions a copy of the
upper triangle.

Each mode is a generator that yields, for every word i, its similarities
to the words after it.  One loop writes each such row into a float64
n x n matrix and mirrors it below the diagonal, so a build holds the
matrix plus one row's temporaries, whatever the mode, and one n(n-1)/2
buffer for the median preference.  The diagonal stays 0 until the
preference is written there.

A coefficient row counts the grams word i shares with each later word as
the number of times that word appears in the posting lists of i's grams;
profiles are sets, so no gram is counted twice.  One ``bincount`` over
those lists gives the counts, and ``dice_ratio`` turns them into the same
float64 values as the word-level ``dice``.

The median measure of two words is the median absolute difference of
the first-occurrence positions of the characters they share, negated so
that larger is always more similar.  It is the far sentinel -200 when
the words share no character, or when that median exceeds the shorter
word's length or 200; values lie in [-200, 0].  The median rows are
built with array code rather than one scalar call per pair.  A
first-occurrence table holds, per word, the first position of every
character of the lexicon's alphabet; it is filled from the code-point
array that ``ngrams.gram_index`` reads, with no loop per word.  Row i
gathers only the columns of its own distinct characters against the
later words, takes absolute position offsets, sorts them along that
short axis and reads the median of the shared ones; the far-distance
rules then apply exactly as in the scalar definition, so every entry
equals it bit for bit (the tests keep the scalar form as an oracle).
Temporaries stay at one [n, m] block per row, m being the row word's
distinct-character count.

Every point starts as a potential exemplar.  Each iteration sends
responsibilities

    r(i,k) <- s(i,k) - max_{k' != k} (a(i,k') + s(i,k'))

then availabilities

    a(i,k) <- min(0, r(k,k) + sum_{i' not in {i,k}} max(0, r(i',k)))   (i != k)
    a(k,k) <- sum_{i' != k} max(0, r(i',k))

each blended as damping*old + (1-damping)*new.  Iteration stops once the
exemplar set {k : r(k,k) + a(k,k) > 0} has been stable for
``_CONVERGENCE_WINDOW`` iterations, or at the ``APConfig`` iteration cap.

``message_passing`` reads S and allocates R, A and one (B+1) x n
scratch once, before the loop; B is the number of rows that fit in
``_BLOCK_BYTES`` (at least 1, at most n).  Each iteration makes two
passes over blocks of B rows.  The first writes a block's a(i,k)+s(i,k)
and new responsibilities into scratch rows 1..B, blends them into R,
then writes the block's clipped responsibilities there and folds them
into the column sums held in scratch row 0, with one reduce over rows
0..B.  That reduce adds the rows one after another, as a whole-matrix
sum(axis=0) does, so the sums are bitwise the same; adding per-block
partial sums would not be.  The second pass clips each block again,
computes its availabilities and blends them into A.  Every element sees
the same float64 operations as in the textbook update, so the messages
are bitwise those of the version with a fresh n x n temporary per step.
A run therefore holds three n x n arrays, the matrix, R and A; R and A
are freed before each point's exemplar similarities are gathered.
``PEAK_N2`` is the process peak that ``estimated_peak`` reports.

Exactly tied instances (e.g. two identical points with equal preference)
make the messages perfectly symmetric and every self-belief converges to
zero, electing nobody.  To stay deterministic without random noise,
``run_ap`` lowers point k's preference by k * 1e-12 * max|s| in place
for the length of the message passing, then restores the saved diagonal,
even when message passing raises; the ordering-based tiebreak is far
below any meaningful similarity difference.  The assignment step never
reads a non-exemplar's own entry and sets each exemplar's by hand, so it
sees the same clusters either way.

Dense [n, n] messages mean quadratic memory, so matrix construction
refuses lexicons beyond ``max_points`` up front instead of dying with a
MemoryError halfway through, and names the peak the run would have had.

numpy is imported inside the functions that build or read arrays, so
loading this module does not load it.  ``build_similarity_matrix``
imports it only after the size checks, so a run the guard refuses does
not load it either.  ``APConfig`` and the mode names are defined in
``config``, so the CLI parser reads them without loading this module.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING, NamedTuple

from .clusters import Cluster, select_stem
from .config import COEFFICIENT, MEDIAN, MEDIAN_PREFERENCE, APConfig
from .errors import CapacityError, ConfigError, DegenerateClusteringError
from .ngrams import COMBINED, code_points, dice_ratio, gram_index
from .preprocess import Lexicon

if TYPE_CHECKING:
    from collections.abc import Iterator

    import numpy as np

# distance assigned when two words share no character, or disagree by more
# than the shorter word's length
FAR_DISTANCE = 200.0

_TIE_BREAK = 1e-12

# message passing works on blocks of rows about this many bytes wide, so a
# block stays in cache across the several passes each update makes over it
_BLOCK_BYTES = 1 << 19
# message passing converges once a non-empty exemplar set stays the same for
# this many iterations
_CONVERGENCE_WINDOW = 15

# process peak of an AP run in units of n^2 * 8 B: the matrix, R and A, plus
# the block scratch.  Peak RSS over a 2-word run, `train --max-iter 10` on
# 3 000 / 6 000 synthetic words: ap-coeff 3.03 / 3.02, ap-median 3.05 /
# 3.02; the largest, rounded up to the next 0.5
PEAK_N2 = 3.5


class SimilarityMatrix(namedtuple("SimilarityMatrix", "words s mode")):
    """A checked n x n float64 matrix over ``words``, one row per word.

    ``s`` must be square, symmetric, and hold off-diagonal similarities in
    the mode's closed range: [0, 1] for ``coefficient``, [-200, 0] for
    ``median``.  The diagonal holds the preference: any finite number, not
    range-checked.  A nan anywhere breaks a rule.  A broken rule raises
    ``ConfigError``.  A matrix both asymmetric and out of range reports
    whichever fault comes first in tile order, row of tiles by row of tiles.
    A read-only ``s`` is copied, since ``run_ap`` lowers the diagonal in
    place for a run.
    """

    __slots__ = ()

    def __new__(cls, words: tuple[str, ...], s: np.ndarray, mode: str):
        import numpy as np

        s = np.ascontiguousarray(s, dtype=np.float64)
        if not s.flags.writeable:
            # run_ap lowers the diagonal in place for the length of a run
            s = s.copy()
        self = super().__new__(cls, tuple(words), s, mode)
        n = len(self.words)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.s.shape != (n, n):
            raise ConfigError(f"similarity matrix must be {n}x{n}, got {self.s.shape}")
        diagonal = self.s.diagonal()
        # a nan makes both ends nan and an infinity one of them infinite;
        # unlike np.isfinite, min and max run no numpy loop that the tile
        # checks below do not, so no more of numpy is paged in
        if n and not (math.isfinite(diagonal.min()) and math.isfinite(diagonal.max())):
            raise ConfigError("the diagonal of a similarity matrix holds the preference, "
                              "which must be a finite number")
        low, high = _MODES[self.mode][1]
        # each tile of the upper triangle equals its mirror, so its range is
        # the lower triangle's too; the preference on the diagonal is left out
        side = math.isqrt(_BLOCK_BYTES // 8)
        for top, left in combinations_with_replacement(range(0, n, side), 2):
            tile = self.s[top : top + side, left : left + side]
            if not np.array_equal(tile, self.s[left : left + side, top : top + side].T):
                raise ConfigError("similarity matrix must be symmetric")
            if top == left:
                tile = tile.copy()
                np.fill_diagonal(tile, low)
            # a nan fails both comparisons
            if not (tile.min() >= low and tile.max() <= high):
                raise ConfigError(f"off-diagonal similarities out of range for mode {self.mode!r}")
        return self


class APResult(NamedTuple):
    clusters: list[Cluster]
    exemplars: list[str]
    converged: bool
    iterations: int
    mode: str


def estimated_peak(n: int) -> str:
    """The estimated process peak of an AP run over ``n`` words, for messages."""
    return (
        f"affinity propagation over {n} words would peak near "
        f"{PEAK_N2 * n * n * 8 / 2**30:.1f} GiB ({PEAK_N2} x n^2 x 8 B)"
    )


def build_similarity_matrix(
    lexicon: Lexicon, mode: str, config: APConfig | None = None
) -> SimilarityMatrix:
    """Dense symmetric similarities with the preference on the diagonal."""
    cfg = config or APConfig()
    words = lexicon.words
    n = len(words)
    if n > cfg.max_points:
        raise CapacityError(
            f"lexicon has {n} words but max_points={cfg.max_points}; {estimated_peak(n)}"
        )
    if n < 2:
        raise ConfigError("similarity matrix needs at least 2 words")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    import numpy as np

    s = np.zeros((n, n))
    for i, row in enumerate(_MODES[mode][0](words)):
        s[i, i + 1 :] = row
        s[i + 1 :, i] = row
    matrix = SimilarityMatrix(words=words, s=s, mode=mode)
    preference = cfg.preference
    if preference == MEDIAN_PREFERENCE:
        preference = _median_preference(matrix.s)
    np.fill_diagonal(matrix.s, preference)
    return matrix


def _median_preference(s: np.ndarray) -> float:
    """``np.median`` of the off-diagonal of the symmetric ``s``, from its upper triangle.

    Each off-diagonal value occurs twice, so the off-diagonal's two middle
    values are the upper triangle's ranks (m-1)//2 and m//2, m = n(n-1)/2.
    """
    import numpy as np

    n = len(s)
    m = n * (n - 1) // 2
    upper = np.empty(m)
    start = 0
    for i in range(n - 1):
        upper[start : start + n - 1 - i] = s[i, i + 1 :]
        start += n - 1 - i
    middle = [(m - 1) // 2, m // 2]
    upper.partition(middle)
    return upper[middle].mean()


def _coefficient_rows(words) -> Iterator[np.ndarray]:
    import numpy as np

    # profiles are sets, so word i shares with word j as many grams as j
    # appears in the posting lists of i's grams; every word has a bigram,
    # so there is always a list to join.  The last row is empty.
    index = gram_index(words, COMBINED)
    postings = index.posting_lists()
    for i, grams in enumerate(np.split(index.grams, index.word_starts[1:-1])):
        common = np.bincount(np.concatenate([postings[g] for g in grams]), minlength=len(words))
        yield dice_ratio(common[i + 1 :], index.sizes[i], index.sizes[i + 1 :])


def _median_rows(words) -> Iterator[np.ndarray]:
    import numpy as np

    # first[j, c] is the first position of character c in word j, or
    # ``absent`` when word j lacks it; ``absent`` is so large that every
    # offset against it exceeds any real one and sorts behind it.  The
    # columns number the lexicon's distinct code points in ascending order.
    n = len(words)
    codes, bounds = code_points(words)
    lengths = np.diff(bounds)
    longest = int(lengths.max())
    absent = 2 * longest
    alphabet, _ = code_points(sorted(set("".join(words))))
    column = np.searchsorted(alphabet, codes)
    owner = np.repeat(np.arange(n), lengths)
    position = np.arange(codes.size) - np.repeat(bounds[:-1], lengths)
    first = np.full(
        (n, alphabet.size), absent, dtype=np.int32 if absent < 2**31 else np.int64
    )
    np.minimum.at(first, (owner, column), position)
    # each word's distinct characters, in the order they first occur
    firsts = first[owner, column] == position
    columns = column[firsts]
    column_starts = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner[firsts], minlength=n), out=column_starts[1:])

    for i in range(n - 1):
        # offsets to every later word over word i's own characters; after
        # the sort each row starts with its shared offsets, ascending
        cols = columns[column_starts[i] : column_starts[i + 1]]
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
        yield np.where(far, -FAR_DISTANCE, -distance)


# per mode: the rows of its similarities to later words, and the closed
# range every off-diagonal similarity lies in
_MODES = {
    COEFFICIENT: (_coefficient_rows, (0.0, 1.0)),
    MEDIAN: (_median_rows, (-FAR_DISTANCE, 0.0)),
}
MODES = tuple(_MODES)


def message_passing(S: np.ndarray, config: APConfig) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Iterate the damped updates on a raw similarity matrix.

    Returns (R, A, iterations run, converged).  Convergence means a
    non-empty exemplar set unchanged over ``_CONVERGENCE_WINDOW``
    consecutive iterations.  S is only read.
    """
    import numpy as np

    n = S.shape[0]
    if S.shape != (n, n) or n < 2:
        raise ConfigError("message passing needs a square matrix over at least 2 points")
    S = np.asarray(S, dtype=np.float64)
    R = np.zeros_like(S)
    A = np.zeros_like(S)
    size = max(1, min(n, _BLOCK_BYTES // (8 * n)))
    # rows 1..b of ``scratch`` hold one block's a(i,k)+s(i,k), then its new
    # responsibilities, clipped responsibilities and new availabilities;
    # row 0 holds the column sums of the clipped rows before the block
    scratch = np.empty((size + 1, n))
    column_sums = scratch[0]
    # per block: its row slice, local row numbers and flat diagonal offsets
    blocks = []
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        local = np.arange(hi - lo)
        blocks.append((slice(lo, hi), local, local * (n + 1) + lo))
    damping = config.damping
    previous: tuple[int, ...] | None = None
    stable = 0
    converged = False
    iteration = 0
    for iteration in range(1, config.max_iterations + 1):
        fold_from = 1  # the first block has no running sums to fold into
        for block, local, diagonal in blocks:
            b = len(local)
            tmp = scratch[1 : b + 1]
            R_block = R[block]
            S_block = S[block]
            np.add(A[block], S_block, out=tmp)
            best = np.argmax(tmp, axis=1)
            first_max = tmp[local, best]
            tmp[local, best] = -np.inf
            second_max = tmp.max(axis=1)
            np.subtract(S_block, first_max[:, None], out=tmp)
            tmp[local, best] = S_block[local, best] - second_max
            R_block *= damping
            tmp *= 1.0 - damping
            R_block += tmp
            # fold the clipped rows into the running column sums; one
            # reduce over rows 0..b adds them row by row, in the order of
            # a whole-matrix sum(axis=0), so the sums are bitwise equal
            # (numpy buffers the output row that the input overlaps)
            np.maximum(R_block, 0.0, out=tmp)
            tmp.flat[diagonal] = R_block.flat[diagonal]
            np.add.reduce(scratch[fold_from : b + 1], axis=0, out=column_sums)
            fold_from = 0

        # the availabilities follow the textbook operation order; a negated
        # ``tmp -= column_sums`` could flip zeros' signs
        for block, local, diagonal in blocks:
            tmp = scratch[1 : len(local) + 1]
            R_block = R[block]
            np.maximum(R_block, 0.0, out=tmp)
            tmp.flat[diagonal] = R_block.flat[diagonal]
            np.subtract(column_sums[None, :], tmp, out=tmp)
            self_availability = tmp.flat[diagonal]  # fancy indexing copies
            np.minimum(tmp, 0.0, out=tmp)
            tmp.flat[diagonal] = self_availability
            A_block = A[block]
            A_block *= damping
            tmp *= 1.0 - damping
            A_block += tmp

        exemplars = tuple(np.flatnonzero(R.diagonal() + A.diagonal() > 0.0))
        if exemplars == previous:
            stable += 1
        else:
            stable = 0
        previous = exemplars
        if exemplars and stable >= _CONVERGENCE_WINDOW - 1:
            converged = True
            break
    return R, A, iteration, converged


def run_ap(matrix: SimilarityMatrix, config: APConfig | None = None) -> APResult:
    """Cluster the matrix; stems are the shortest members, exemplars reported.

    Raises DegenerateClusteringError when no exemplar emerges, and
    ConfigError when a message overflows float64; a run that merely fails
    to stabilise comes back with ``converged=False``.
    """
    import numpy as np

    cfg = config or APConfig()
    n = len(matrix.words)
    s = matrix.s
    # max|s| without an n x n temporary; 1 for an all-zero matrix
    scale = max(float(s.max()), -float(s.min())) or 1.0
    points = np.arange(n)
    preferences = s.diagonal().copy()
    try:
        s[points, points] -= points * (scale * _TIE_BREAK)
        with np.errstate(over="raise", invalid="raise"):
            R, A, iterations, converged = message_passing(s, cfg)
    except FloatingPointError:
        raise ConfigError(
            f"similarities too large for message passing (largest magnitude {scale:g}); "
            "use a preference of smaller magnitude"
        ) from None
    finally:
        s[points, points] = preferences
    beliefs = R.diagonal() + A.diagonal()
    del R, A  # free the messages before the n x exemplars gathers below
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

