"""Exemplar clustering by responsibility/availability message passing.

Works on a symmetric word-pair similarity matrix built in one of two
modes: ``coefficient`` (dice over pooled bigram+trigram profiles, values
in [0, 1]) or ``median`` (negated median character-offset distance,
values in [-200, 0] in steps of 0.5).  The diagonal carries the
preference; higher preferences buy more clusters.

No n x n float64 similarity array is kept.  Each mode fills a compact
store beside a float64 diagonal vector: ``_Nonzeros`` holds the
coefficient mode's off-diagonal nonzeros, 12 B each, ``_Halves`` every
median entry as an int16, 2 B each.  The coefficient store saves what
the share of nonzero pairs allows: 5-9% on the synthetic lexicons of
the tests and the benchmark (0.08-0.14 n^2 x 8 B), 17% on the 48-word
demo lexicon, and 100% when every word carries one common prefix
(1.0 n^2 x 8 B).  No real lexicon of realistic size has been measured.

A store is read two ways only.  ``rows`` decodes one block of
``block_rows`` rows into a float64 buffer, so every value a reader sees
is the float64 the measure computed.  ``median`` gives the default
preference from the store, with no dense copy.  ``block_rows`` is
fixed when the store is built, by ``_BLOCK_BYTES`` then.  Message
passing decodes into its own scratch, and copies a raw array's rows
there; the tie-break scale, the exemplar assignment and
``SimilarityMatrix.s`` read the one decode loop ``_decoded``.

Each mode is a generator over the lexicon's rows, filled straight into
its store.  A coefficient row holds word i's nonzero similarities to
every other word, so each pair is computed from both ends and no mirror
needs sorting into place.  It counts the grams word i shares with each
word as the number of times that word appears in the posting lists of
i's grams; profiles are sets, so no gram is counted twice.  One
``bincount`` over those lists gives the counts, and ``dice_ratio`` turns
the nonzero ones into the same float64 values as the word-level
``dice``; 2C/(A+B) is symmetric, bit for bit.  The rows of one block
are joined into its store entry before the next block's are computed.
A median row holds word i's similarities to the words after it, as the
half units q = -2 s its store keeps, and is mirrored below the
diagonal.  A build holds the store plus one block's temporaries.

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
short axis and adds the two middle shared ones: q, twice the median.
The far rules are integer tests, q above twice the shorter length or
above 400, and decoded as q x -0.5 every entry equals the scalar
definition bit for bit (the tests keep the scalar form as an oracle).
Temporaries stay at one [n, m] block per row, m being the row word's
distinct-character count.

``SimilarityMatrix`` checks a hand-built dense matrix before it encodes
it; the build fills the store directly and skips the check.

Every point starts as a potential exemplar.  Each iteration sends
responsibilities

    r(i,k) <- s(i,k) - max_{k' != k} (a(i,k') + s(i,k'))

then availabilities

    a(i,k) <- min(0, r(k,k) + sum_{i' not in {i,k}} max(0, r(i',k)))   (i != k)
    a(k,k) <- sum_{i' != k} max(0, r(i',k))

each blended as damping*old + (1-damping)*new.  Iteration stops once the
exemplar set {k : r(k,k) + a(k,k) > 0} has been stable for
``_CONVERGENCE_WINDOW`` iterations, or at the ``APConfig`` iteration cap.

``message_passing`` runs on W workers: the calling thread and W - 1
threads, W being the CPUs in the process's affinity mask, capped at
``_MAX_WORKERS`` (two, the most that has been measured), at the number
of blocks and at n // 2.  It allocates R, A and one scratch per worker
once, before the loop, of about (B+1) x n; B is the store's
``block_rows`` or, for a raw array, the number of rows that fit in
``_BLOCK_BYTES`` (at least 1, at most n).  Each iteration has two
phases, and every worker finishes one before any starts the next.

- The sweep.  Each worker takes a contiguous run of blocks of B rows,
  and sends a block's availabilities of iteration t and then its
  responsibilities of t+1 while its rows of R and A are in cache.  The
  availabilities clip the block's responsibilities into the scratch,
  subtract them from the column sums of iteration t, then blend into A.
  The responsibilities decode the block of S into the scratch, add
  a(i,k), find each row's two largest a(i,k)+s(i,k), decode S there
  again for the new responsibilities, and blend them into R.  Decoding
  twice keeps a second block buffer out of the run.  Worker 0, whose
  run starts at row 0, then clips the block's new responsibilities and
  folds them into the running column sums in its scratch's first row
  with one reduce over rows 0..B.  That reduce adds the rows one after
  another, as a whole-matrix sum(axis=0) does, so every column's sum is
  bitwise the same; adding per-block partial sums would not be.
- The fold.  Each worker takes one slab of columns, n w/W to
  n (w+1)/W, starts from worker 0's sums there and folds in the blocks
  after worker 0's run the same way, block by block in row order, its
  scratch seen as (B+1) x slab width.  Columns need no order among
  themselves, so the slabs fold side by side.  A slab one column wide
  would be summed pairwise instead, hence W <= n // 2.  With one worker
  nothing is left to fold, and an iteration is the single sweep.

Between the phases the calling thread reads the exemplar set.  That of
iteration t needs every a(k,k) before the sweep, so it is computed first
from the column sums, with the operations the sweep applies to them,
and reads the same bits.  Every element sees the same float64
operations as in the textbook update, so the messages are bitwise those
of the version with a dense S and a fresh n x n temporary per step,
whatever W is.  A run therefore holds R and A, two n x n float64
arrays, and W block scratches of about ``_BLOCK_BYTES`` beside the store: 0.25 n^2 x 8 B in
median mode, and between 0 and 1.0 n^2 x 8 B in coefficient mode, as
above.  R and A are freed before each point's exemplar similarities are
gathered, one decoded block at a time.  ``config.PEAK_N2`` holds, per
mode, the process peak that ``estimated_peak`` reports; coefficient
mode's is its bound, with every block dense.

Exactly tied instances (e.g. two identical points with equal preference)
make the messages perfectly symmetric and every self-belief converges to
zero, electing nobody.  To stay deterministic without random noise,
``run_ap`` lowers point k's preference by k * 1e-12 * max|s| in a copy
of the diagonal that only message passing reads; the ordering-based
tiebreak is far below any meaningful similarity difference.  The
assignment step reads the record's own diagonal, never reads a
non-exemplar's own entry and sets each exemplar's by hand, so it sees
the same clusters either way.

Quadratic memory means that matrix construction refuses lexicons beyond
``max_points`` up front (``APConfig.check_capacity``) instead of dying
with a MemoryError halfway through, and names the peak the run would
have had.

The guard, ``APConfig`` and the mode names live in ``config``, so the CLI
asks the guard and reads the parser's defaults without loading this
module or numpy.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from collections import namedtuple
from contextlib import contextmanager
from itertools import combinations_with_replacement, islice
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .clusters import Cluster, select_stem
from .config import COEFFICIENT, MEDIAN, MEDIAN_PREFERENCE, APConfig
from .errors import ConfigError, DegenerateClusteringError
from .ngrams import COMBINED, code_points, dice_ratio, gram_index
from .preprocess import Lexicon

if TYPE_CHECKING:
    from collections.abc import Iterator

# distance assigned when two words share no character, or disagree by more
# than the shorter word's length
FAR_DISTANCE = 200.0
# a median similarity s is stored as q = -2 s, an integer in [0, _FAR_HALVES]
_FAR_HALVES = 400

_TIE_BREAK = 1e-12

# message passing works on blocks of rows about this many bytes wide, so a
# block stays in cache across the several passes each update makes over it
_BLOCK_BYTES = 1 << 19
# message passing runs on at most this many workers: two is the most that
# has been measured, on a machine with two CPUs, and each worker holds one
# more block scratch
_MAX_WORKERS = 2
# message passing converges once a non-empty exemplar set stays the same for
# this many iterations
_CONVERGENCE_WINDOW = 15


def _block_rows(n: int) -> int:
    """Rows per block of message passing over n points: at least 1, at most n."""
    return max(1, min(n, _BLOCK_BYTES // (8 * max(n, 1))))


def _with_diagonal(
    block: np.ndarray, lo: int, diagonal: np.ndarray, left: int = 0
) -> np.ndarray:
    """``block``, C-contiguous rows lo.. and columns left.. of a matrix,
    with the diagonal entries among them written."""
    height, width = block.shape
    first, stop = max(lo, left), min(lo + height, left + width)
    if first < stop:
        # point p's diagonal entry sits at flat offset (p - lo) * width + p - left
        start = (first - lo) * width + first - left
        block.reshape(-1)[start :: width + 1][: stop - first] = diagonal[first:stop]
    return block


class _Nonzeros(namedtuple("_Nonzeros", "diagonal block_rows blocks")):
    """Coefficient similarities: the diagonal, and per block of
    ``block_rows`` rows either its off-diagonal nonzeros, as int32 flat
    positions inside the block and float64 values, every other entry
    being 0.0, or, where those would take more room than the block, the
    block as a dense float64 array with a zero diagonal."""

    __slots__ = ()

    @classmethod
    def from_rows(cls, diagonal: np.ndarray, rows) -> _Nonzeros:
        """From (columns, values) of each row's off-diagonal nonzeros, in row order."""
        n = len(diagonal)
        size = _block_rows(n)
        rows = iter(rows)
        blocks = []
        for _ in range(0, n, size):
            block = list(islice(rows, size))
            positions = np.concatenate([columns + r * n for r, (columns, _) in enumerate(block)])
            values = np.concatenate([row_values for _, row_values in block])
            if 12 * len(values) > 8 * len(block) * n:
                dense = np.zeros((len(block), n))
                dense.reshape(-1)[positions] = values
                blocks.append(dense)
            else:
                blocks.append((positions.astype(np.int32), values))
        return cls(diagonal, size, tuple(blocks))

    @classmethod
    def from_dense(cls, s: np.ndarray) -> _Nonzeros:
        def rows():
            for i, row in enumerate(s):
                columns = np.flatnonzero(row)
                columns = columns[columns != i]
                yield columns, row[columns]

        return cls.from_rows(s.diagonal().copy(), rows())

    def median(self) -> float:
        """``np.median`` of the off-diagonal, from its zero count and its nonzeros."""
        # each nonzero is stored as (i, j) and (j, i), so the upper triangle
        # holds half of them, gathered block by block into one array; the
        # zeros come before them
        n = len(self.diagonal)
        ranks = _middle_ranks(n)
        stored_values = (b if isinstance(b, np.ndarray) else b[1] for b in self.blocks)
        upper = np.empty(sum(map(np.count_nonzero, stored_values)) // 2)
        filled = 0
        for lo, stored in zip(range(0, n, self.block_rows), self.blocks):
            if isinstance(stored, np.ndarray):
                above = np.triu(stored, lo + 1)
                above = above[above != 0.0]
            else:
                positions, values = stored
                above = values[positions % n - positions // n > lo]
            upper[filled : filled + len(above)] = above
            filled += len(above)
        zeros = n * (n - 1) // 2 - len(upper)
        picks = [rank - zeros for rank in ranks if rank >= zeros]
        if picks:
            upper.partition(picks)
        return np.array([upper[rank - zeros] if rank >= zeros else 0.0 for rank in ranks]).mean()

    def rows(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Rows lo..hi, a whole block from its first row, decoded into ``out``."""
        block = out[: hi - lo]
        stored = self.blocks[lo // self.block_rows]
        if isinstance(stored, np.ndarray):
            np.copyto(block, stored)
        else:
            positions, values = stored
            block.fill(0.0)
            block.reshape(-1)[positions] = values
        return _with_diagonal(block, lo, self.diagonal)


class _Halves(namedtuple("_Halves", "diagonal block_rows halves")):
    """Median similarities: the diagonal, and every off-diagonal entry s as
    the int16 q = -2 s in [0, 400] of an n x n ``halves``, whose own
    diagonal is 0 and unread; read in blocks of ``block_rows`` rows."""

    __slots__ = ()

    @classmethod
    def from_rows(cls, diagonal: np.ndarray, rows) -> _Halves:
        """From each row's q to the later words, in row order."""
        n = len(diagonal)
        halves = np.zeros((n, n), dtype=np.int16)
        for i, row in enumerate(rows):
            halves[i, i + 1 :] = row
            halves[i + 1 :, i] = halves[i, i + 1 :]
        return cls(diagonal, _block_rows(n), halves)

    @classmethod
    def from_dense(cls, s: np.ndarray) -> _Halves:
        return cls.from_rows(s.diagonal().copy(), (row[i + 1 :] * -2.0 for i, row in enumerate(s)))

    def median(self) -> float:
        """``np.median`` of the off-diagonal, from a 401-bin count of q."""
        # whole blocks of rows count each off-diagonal entry twice and the
        # diagonal's n zeros once; ascending s is descending q
        n = len(self.diagonal)
        size = self.block_rows
        counts = np.zeros(_FAR_HALVES + 1, dtype=np.intp)
        for lo in range(0, n, size):
            counts += np.bincount(self.halves[lo : lo + size].ravel(), minlength=_FAR_HALVES + 1)
        counts[0] -= n
        counts //= 2
        at_least = np.cumsum(counts[::-1])
        q = _FAR_HALVES - np.searchsorted(at_least, _middle_ranks(n), side="right")
        return (q * -0.5).mean()

    def rows(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Rows lo..hi decoded into ``out``."""
        block = out[: hi - lo]
        # a cast copy, then one multiply: faster than a mixed-type multiply
        np.copyto(block, self.halves[lo:hi])
        block *= -0.5
        return _with_diagonal(block, lo, self.diagonal)


class SimilarityMatrix(namedtuple("SimilarityMatrix", "words store mode")):
    """Similarities over ``words``, one row per word, in the mode's store.

    ``SimilarityMatrix(words, s, mode)`` checks its words and a dense
    n x n ``s``, and encodes ``s``.  The words must be pairwise distinct
    strings.  ``s`` must be square, symmetric, and hold off-diagonal
    similarities in the mode's closed range: [0, 1] for ``coefficient``,
    [-200, 0] for ``median``, where each must also be a multiple of 0.5.
    The diagonal holds the preference: any finite number, not
    range-checked.  A nan anywhere breaks a rule.  A broken rule raises
    ``ConfigError`` before anything is stored.  A matrix breaking several
    rules reports whichever fault comes first in tile order, row of tiles
    by row of tiles: the check is one pass over square tiles of the upper
    triangle, each compared with its mirror, so it adds no n x n
    temporary.  The record keeps no reference to ``s``.  An
    off-diagonal zero keeps no sign: it reads back as the build writes
    it, +0.0 in coefficient mode and -0.0 in median mode.  The store
    takes at most n^2 x 8 B, as much as ``s``: the median store 2 B per
    entry, the coefficient store 12 B per off-diagonal nonzero, or 8 B
    per entry in the blocks of rows where more than 2/3 are nonzero.

    ``s`` reads the matrix back as a dense float64 array, decoded afresh
    on each read: n^2 x 8 B, for tests and oracles.
    """

    __slots__ = ()

    def __new__(cls, words: tuple[str, ...], s: np.ndarray, mode: str):
        words = tuple(words)
        if not all(isinstance(word, str) for word in words) or len(set(words)) < len(words):
            raise ConfigError("similarity matrix words must be pairwise distinct strings")
        s = np.asarray(s, dtype=np.float64)
        n = len(words)
        _, store, (low, high) = _mode(mode)
        if s.shape != (n, n):
            raise ConfigError(f"similarity matrix must be {n}x{n}, got {s.shape}")
        diagonal = s.diagonal()
        # a nan makes both ends nan and an infinity one of them infinite;
        # unlike np.isfinite, min and max run no numpy loop that the tile
        # checks below do not, so no more of numpy is paged in
        if n and not (math.isfinite(diagonal.min()) and math.isfinite(diagonal.max())):
            raise ConfigError("the diagonal of a similarity matrix holds the preference, "
                              "which must be a finite number")
        # each tile of the upper triangle equals its mirror, so its range is
        # the lower triangle's too; the preference on the diagonal is left out
        side = math.isqrt(_BLOCK_BYTES // 8)
        for top, left in combinations_with_replacement(range(0, n, side), 2):
            tile = s[top : top + side, left : left + side]
            if not np.array_equal(tile, s[left : left + side, top : top + side].T):
                raise ConfigError("similarity matrix must be symmetric")
            if top == left:
                tile = tile.copy()
                np.fill_diagonal(tile, low)
            # a nan fails both comparisons
            if not (tile.min() >= low and tile.max() <= high):
                raise ConfigError(f"off-diagonal similarities out of range for mode {mode!r}")
            if mode == MEDIAN and np.fmod(tile, 0.5).any():
                raise ConfigError("median similarities must be multiples of 0.5")
        return super().__new__(cls, words, store.from_dense(s), mode)

    @property
    def s(self) -> np.ndarray:
        n = len(self.words)
        s = np.empty((n, n))
        for lo, block in _decoded(self.store):
            s[lo : lo + len(block)] = block
        return s


class APResult(NamedTuple):
    clusters: list[Cluster]
    exemplars: list[str]
    converged: bool
    iterations: int
    mode: str


def build_similarity_matrix(
    lexicon: Lexicon, mode: str, config: APConfig | None = None
) -> SimilarityMatrix:
    """Symmetric similarities in the mode's store, with the preference on the diagonal."""
    cfg = config or APConfig()
    words = lexicon.words
    n = len(words)
    measure, store, _ = _mode(mode)
    cfg.check_capacity(n, mode)
    if n < 2:
        raise ConfigError("similarity matrix needs at least 2 words")
    store = store.from_rows(np.zeros(n), measure(words))
    preference = cfg.preference
    if preference == MEDIAN_PREFERENCE:
        preference = store.median()
    store.diagonal[:] = preference
    return SimilarityMatrix._make((words, store, mode))


def _middle_ranks(n: int) -> list[int]:
    """The upper triangle's ranks of the off-diagonal's two middle values:
    each of its m = n(n-1)/2 values occurs twice in the off-diagonal."""
    m = n * (n - 1) // 2
    return [(m - 1) // 2, m // 2]


def _coefficient_rows(words) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # profiles are sets, so word i shares with word j as many grams as j
    # appears in the posting lists of i's grams; every word has a bigram,
    # so there is always a list to join.  Each row is word i's nonzero
    # similarities to every other word, as (columns, values).
    index = gram_index(words, COMBINED)
    postings = index.posting_lists()
    for i, grams in enumerate(np.split(index.grams, index.word_starts[1:-1])):
        common = np.bincount(np.concatenate([postings[g] for g in grams]), minlength=len(words))
        common[i] = 0
        columns = np.flatnonzero(common)
        yield columns, dice_ratio(common[columns], index.sizes[i], index.sizes[columns])


def _median_rows(words) -> Iterator[np.ndarray]:
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
        # twice the median; a row that shares nothing reads two offsets
        # against ``absent``, beyond twice any length
        q = flat[starts + np.maximum(shared - 1, 0) // 2] + flat[starts + shared // 2]
        far = (q > 2 * np.minimum(lengths[i], lengths[i + 1 :])) | (q > _FAR_HALVES)
        yield np.where(far, _FAR_HALVES, q)


# per mode: the rows of its measure, the store they fill, and the closed
# range every off-diagonal similarity lies in
_MODES = {
    COEFFICIENT: (_coefficient_rows, _Nonzeros, (0.0, 1.0)),
    MEDIAN: (_median_rows, _Halves, (-FAR_DISTANCE, 0.0)),
}
MODES = tuple(_MODES)


def _mode(mode: str) -> tuple:
    """The mode's entry in ``_MODES``."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    return _MODES[mode]


def _decoded(store) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, rows lo..) of each block of the store, decoded into one buffer."""
    n = len(store.diagonal)
    size = store.block_rows
    buffer = np.empty((size, n))
    for lo in range(0, n, size):
        yield lo, store.rows(lo, min(lo + size, n), buffer)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform with no affinity mask
        return os.cpu_count() or 1


@contextmanager
def _workers(count: int):
    """A function that runs ``phase(w)`` for every worker w < ``count`` and
    returns once each has: worker 0 on the calling thread, the others on
    threads of their own, each in a copy of the caller's context, so that
    numpy's ``errstate`` holds there too.

    The first error in any worker, or in the calling thread, breaks the
    barrier; every thread is joined and that error raised here.  A thread
    that cannot start is a ``MemoryError``.
    """
    if count == 1:
        yield lambda phase: phase(0)
        return
    barrier = threading.Barrier(count)
    errors: list[BaseException] = []
    todo = None  # the phase the workers run next; None ends them

    def work(w):
        try:
            while True:
                barrier.wait()
                if todo is None:
                    return
                todo(w)
                barrier.wait()
        except threading.BrokenBarrierError:
            pass
        except BaseException as exc:  # raised by the calling thread
            errors.append(exc)
            barrier.abort()

    def run(phase):
        nonlocal todo
        todo = phase
        barrier.wait()
        phase(0)
        barrier.wait()

    threads = []
    try:
        for w in range(1, count):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(work, w))
            try:
                thread.start()
            except RuntimeError as exc:
                raise MemoryError(f"cannot start a message-passing thread: {exc}") from None
            threads.append(thread)
        yield run
        todo = None
        barrier.wait()
    except BaseException as exc:
        if not isinstance(exc, threading.BrokenBarrierError):
            errors.append(exc)
        barrier.abort()
        for thread in threads:
            thread.join()
        if errors[0] is exc:
            raise
        raise errors[0] from None
    for thread in threads:
        thread.join()


def message_passing(S, config: APConfig) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Iterate the damped updates on a similarity matrix.

    ``S`` is an n x n array-like of finite numbers, only read, or the
    store of a ``SimilarityMatrix``, decoded one block of rows at a time.
    Returns (R, A, iterations run, converged).  Convergence means a
    non-empty exemplar set unchanged over ``_CONVERGENCE_WINDOW``
    consecutive iterations.  The work is shared by one worker per CPU,
    at most ``_MAX_WORKERS``, one per block and one per two columns; the
    messages are the same whatever the count.
    """
    if isinstance(S, (_Nonzeros, _Halves)):
        n, size, rows = len(S.diagonal), S.block_rows, S.rows
    else:
        s = np.asarray(S, dtype=np.float64)
        n = len(s) if s.ndim == 2 and s.shape == (len(s), len(s)) else 0
        # min and max, as in ``SimilarityMatrix``: no n x n temporary
        if n and not (math.isfinite(s.min()) and math.isfinite(s.max())):
            raise ConfigError("a similarity matrix for message passing must hold finite numbers")
        size = _block_rows(n)

        def rows(lo, hi, out):
            # a copy, not a view: the second read must refill the scratch
            block = out[: hi - lo]
            np.copyto(block, s[lo:hi])
            return block

    if n < 2:
        raise ConfigError("message passing needs a square matrix over at least 2 points")
    R = np.zeros((n, n))
    A = np.zeros((n, n))
    # per block: its row slice, local row numbers and flat diagonal offsets
    blocks = []
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        local = np.arange(hi - lo)
        blocks.append((slice(lo, hi), local, local * (n + 1) + lo))
    # a slab one column wide would be summed pairwise, not row by row
    count = max(1, min(_cpu_count(), _MAX_WORKERS, len(blocks), n // 2))
    # per worker: its run of blocks, its column slab, and its scratch as
    # the sweep and the fold see it.  The sweep's b x n rows hold one
    # block's a(i,k)+s(i,k), then its new responsibilities, clipped
    # responsibilities and new availabilities; worker 0's follow a row
    # of the column sums of the clipped rows before the block.  The
    # fold's (b+1) x slab width rows hold a later block's clipped
    # responsibilities in rows 1..b, and the slab's running sums in row 0
    runs = [blocks[len(blocks) * w // count : len(blocks) * (w + 1) // count] for w in range(count)]
    later = blocks[len(runs[0]) :]
    slabs = [slice(n * w // count, n * (w + 1) // count) for w in range(count)]
    sweep_rows, fold_rows = [], []
    for w, slab in enumerate(slabs):
        # worker 0's fold rows start past its running sums, which every
        # fold reads
        height, start = (size + 1, n) if w == 0 else (size, 0)
        width = slab.stop - slab.start
        scratch = np.empty(max(height * n, start + (size + 1) * width))
        sweep_rows.append(scratch[: height * n].reshape(height, n))
        fold_rows.append(scratch[start : start + (size + 1) * width].reshape(size + 1, width))
    running = sweep_rows[0][0]
    # the column sums of the clipped responsibilities of iteration t
    sums = np.empty(n)
    damping = config.damping

    def send_responsibilities(tmp, block, local):
        R_block = R[block]
        # the block of S is decoded into tmp twice, for a+s and for s,
        # so a worker holds no second block buffer
        np.add(rows(block.start, block.stop, tmp), A[block], out=tmp)
        best = np.argmax(tmp, axis=1)
        first_max = tmp[local, best]
        tmp[local, best] = -np.inf
        second_max = tmp.max(axis=1)
        s_best = rows(block.start, block.stop, tmp)[local, best]
        tmp -= first_max[:, None]
        tmp[local, best] = s_best - second_max
        R_block *= damping
        tmp *= 1.0 - damping
        R_block += tmp

    # the availabilities follow the textbook operation order; a negated
    # ``tmp -= sums`` could flip zeros' signs
    def send_availabilities(tmp, block, diagonal):
        R_block = R[block]
        np.maximum(R_block, 0.0, out=tmp)
        tmp.flat[diagonal] = R_block.flat[diagonal]
        np.subtract(sums[None, :], tmp, out=tmp)
        self_availability = tmp.flat[diagonal]  # fancy indexing copies
        np.minimum(tmp, 0.0, out=tmp)
        tmp.flat[diagonal] = self_availability
        A_block = A[block]
        A_block *= damping
        tmp *= 1.0 - damping
        A_block += tmp

    # folds rows 1..b of ``view``, a block's clipped responsibilities, into
    # the running sums in its row 0.  One reduce over rows 0..b adds them
    # row by row, in the order of a whole-matrix sum(axis=0), so the sums
    # are bitwise equal (numpy buffers the output row that the input
    # overlaps); adding per-block partial sums would not be
    def fold_block(view, block, height):
        fold_from = 1 if block.start == 0 else 0  # the first block has no sums to fold into
        np.add.reduce(view[fold_from : height + 1], axis=0, out=view[0])

    # a worker's sweep sends each of its blocks' availabilities of
    # iteration t, then its responsibilities of t + 1, while the block's
    # rows of R and A are in cache; worker 0 folds its blocks there too,
    # as they leave the responsibilities
    def sweep(w, availabilities, responsibilities):
        view = sweep_rows[w]
        first = 1 if w == 0 else 0  # past worker 0's running sums
        for block, local, diagonal in runs[w]:
            tmp = view[first : first + len(local)]
            if availabilities:
                send_availabilities(tmp, block, diagonal)
            if responsibilities:
                send_responsibilities(tmp, block, local)
                if w == 0:
                    R_block = R[block]
                    np.maximum(R_block, 0.0, out=tmp)
                    tmp.flat[diagonal] = R_block.flat[diagonal]
                    fold_block(view, block, len(local))

    # a worker's fold adds the later blocks to its slab of worker 0's sums,
    # block by block in row order, and stores the slab's column sums of
    # iteration t + 1; columns need no order among themselves
    R_diagonal = R.diagonal()

    def fold(w):
        columns, view = slabs[w], fold_rows[w]
        view[0] = running[columns]
        for block, local, _ in later:
            tmp = view[1 : len(local) + 1]
            np.maximum(R[block, columns], 0.0, out=tmp)
            _with_diagonal(tmp, block.start, R_diagonal, columns.start)
            fold_block(view, block, len(local))
        sums[columns] = view[0]

    previous: tuple[int, ...] | None = None
    stable = 0
    converged = False
    with _workers(count) as run:
        run(lambda w: sweep(w, False, True))
        for iteration in range(1, config.max_iterations + 1):
            if later:
                run(fold)
            else:
                sums[:] = running
            # the self-availabilities of iteration t, by the operations that
            # the sweep applies to them, so the exemplar set is read first
            self_availability = A.diagonal() * damping + (sums - R.diagonal()) * (1.0 - damping)
            exemplars = tuple(np.flatnonzero(R.diagonal() + self_availability > 0.0))
            if exemplars == previous:
                stable += 1
            else:
                stable = 0
            previous = exemplars
            converged = bool(exemplars) and stable >= _CONVERGENCE_WINDOW - 1
            last = converged or iteration == config.max_iterations
            run(lambda w: sweep(w, True, not last))
            if last:
                break
    return R, A, iteration, converged


def run_ap(matrix: SimilarityMatrix, config: APConfig | None = None) -> APResult:
    """Cluster the matrix; stems are the shortest members, exemplars reported.

    Raises DegenerateClusteringError when no exemplar emerges, and
    ConfigError when a message overflows float64; a run that merely fails
    to stabilise comes back with ``converged=False``.
    """
    cfg = config or APConfig()
    store = matrix.store
    diagonal = store.diagonal
    n = len(diagonal)
    # max|s| over every entry, with no n x n temporary; 1 for an all-zero
    # matrix, and an empty one gets as far as message passing's size check
    scale = max(
        (max(float(block.max()), -float(block.min())) for _, block in _decoded(store)),
        default=0.0,
    ) or 1.0
    try:
        lowered = store._replace(diagonal=diagonal - np.arange(n) * (scale * _TIE_BREAK))
        with np.errstate(over="raise", invalid="raise"):
            R, A, iterations, converged = message_passing(lowered, cfg)
    except FloatingPointError:
        raise ConfigError(
            f"similarities too large for message passing (largest magnitude {scale:g}); "
            "use a preference of smaller magnitude"
        ) from None
    beliefs = R.diagonal() + A.diagonal()
    del R, A  # free the messages before the exemplar similarities are gathered
    exemplar_indices = np.flatnonzero(beliefs > 0.0)
    if exemplar_indices.size == 0:
        raise DegenerateClusteringError(
            "no exemplar emerged (all self-beliefs <= 0); raise the preference value"
        )
    # ties go to the lowest exemplar index: argmax returns the first maximum
    # and exemplar_indices is ascending
    assignment = np.empty(n, dtype=np.intp)
    for lo, block in _decoded(store):
        assignment[lo : lo + len(block)] = exemplar_indices[
            np.argmax(block[:, exemplar_indices], axis=1)
        ]
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
