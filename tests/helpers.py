"""Independent oracles and synthetic data generators for the test suite.

Everything here is deliberately written without reusing the package's own
set-based machinery, so a test comparing the two routes is a genuine
cross-check: gram lists are deduplicated by linear scan, overlaps counted
by pairwise comparison, the greedy walk re-enacted literally, the median
offset measured one word pair at a time, the exemplar optimum found by
exhaustive subset search, and the AP messages computed with a fresh
temporary per step.
"""

from __future__ import annotations

import os
import random
from itertools import combinations
from pathlib import Path
from statistics import median

import numpy as np

from stemcluster import build_lexicon
from stemcluster.ap import FAR_DISTANCE
from stemcluster.preprocess import Lexicon, lexicon_sort_key

BANGLA_LETTERS = (
    "অআইঈউঊএঐওঔ"
    "কখগঘঙচছজঝঞটঠডঢণতথদধনপফবভমযরলশষসহ"
    "ািীুূৃেৈোৌ"
    "্ংঃঁ়"
)

SUFFIXES = ("ের", "রা", "টা", "টি", "তে", "কে", "গুলো", "গুলি", "দের", "ে", "র")


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH, for subprocesses."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def random_word(rng: random.Random, min_len: int = 2, max_len: int = 10) -> str:
    return "".join(rng.choice(BANGLA_LETTERS) for _ in range(rng.randint(min_len, max_len)))


def synthetic_lexicon(count: int, seed: int = 0):
    """Deterministic pseudo-Bangla lexicon: random stems plus suffixed variants."""
    rng = random.Random(seed)
    words: set[str] = set()
    while len(words) < count:
        stem = random_word(rng, 3, 7)
        words.add(stem)
        for _ in range(rng.randint(0, 4)):
            words.add(stem + rng.choice(SUFFIXES))
    ordered = sorted(words, key=lambda w: (len(w), w))[:count]
    return build_lexicon(ordered)


def build_lexicon_oracle(tokens) -> Lexicon:
    """Strip every token, keep words of two or more characters, sort by key."""
    tokens = list(tokens)
    trimmed = (token.strip() for token in tokens)
    words = sorted({t for t in trimmed if len(t) >= 2}, key=lexicon_sort_key)
    return Lexicon(words=tuple(words), total_tokens=len(tokens))


def distinct_gram_list(word: str, order: str) -> list[str]:
    """Distinct grams as a list, deduplicated by linear membership scan."""
    spans: list[str] = []
    if order in ("2", "2+3"):
        spans.extend(word[i : i + 2] for i in range(len(word) - 1))
    if order in ("3", "2+3"):
        spans.extend(word[i : i + 3] for i in range(len(word) - 2))
    out: list[str] = []
    for gram in spans:
        if gram not in out:
            out.append(gram)
    return out


def dice_oracle(w1: str, w2: str, order: str = "2") -> float:
    """2C/(A+B) with the overlap counted by O(|A|*|B|) pairwise comparison."""
    g1 = distinct_gram_list(w1, order)
    g2 = distinct_gram_list(w2, order)
    common = sum(1 for a in g1 for b in g2 if a == b)
    denominator = len(g1) + len(g2)
    if denominator == 0:
        return 0.0
    return 2 * common / denominator


def median_offset_distance(w1: str, w2: str) -> float:
    """Negated median first-occurrence offset over shared characters.

    The scalar definition of the median-offset measure.  Returns a value in
    [-200, 0].  The sentinel -200 applies when the words share no character
    or when the median offset exceeds the shorter word's length or 200.
    """
    shared = set(w1) & set(w2)
    if not shared:
        return -FAR_DISTANCE
    offsets = [abs(w1.index(ch) - w2.index(ch)) for ch in shared]
    distance = float(median(offsets))
    if distance > min(len(w1), len(w2)) or distance > FAR_DISTANCE:
        distance = FAR_DISTANCE
    return -distance


def greedy_oracle(words, order: str = "2", threshold: float = 0.06):
    """Literal re-enactment of the clustering walk on a plain word list.

    Returns [(stem, members), ...] in seed order.
    """
    pending = list(words)
    clusters = []
    while pending:
        seed = pending[0]
        members = [seed]
        rest = []
        for word in pending[1:]:
            if dice_oracle(seed, word, order) >= threshold:
                members.append(word)
            else:
                rest.append(word)
        pending = rest
        stem = min(members, key=lambda w: (len(w), w))
        clusters.append((stem, tuple(members)))
    return clusters


def net_similarity(s, exemplars) -> float:
    """Score of an exemplar set: chosen preferences plus best assignments."""
    exemplar_set = set(exemplars)
    total = 0.0
    for k in exemplar_set:
        total += float(s[k][k])
    for i in range(len(s)):
        if i not in exemplar_set:
            total += max(float(s[i][k]) for k in exemplar_set)
    return total


def best_net_similarity(s) -> tuple[tuple[int, ...], float]:
    """Exhaustive search over every non-empty exemplar subset."""
    n = len(s)
    best: tuple[int, ...] = ()
    best_value = float("-inf")
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            value = net_similarity(s, subset)
            if value > best_value:
                best_value = value
                best = subset
    return best, best_value


def message_passing_oracle(S, damping=0.5, max_iterations=200, convergence_window=15,
                           on_clip=None):
    """Textbook damped AP updates, one new array per step; (R, A, iterations, converged).

    ``on_clip``, if given, is called with each iteration's clipped
    responsibilities, the terms of the column sums."""
    n = S.shape[0]
    R = np.zeros_like(S)
    A = np.zeros_like(S)
    rows = np.arange(n)
    previous = None
    stable = 0
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        AS = A + S
        best = np.argmax(AS, axis=1)
        first_max = AS[rows, best]
        AS[rows, best] = -np.inf
        second_max = AS.max(axis=1)
        R_new = S - first_max[:, None]
        R_new[rows, best] = S[rows, best] - second_max
        R = damping * R + (1.0 - damping) * R_new

        clipped = np.maximum(R, 0.0)
        np.fill_diagonal(clipped, R.diagonal())
        if on_clip is not None:
            on_clip(clipped)
        column_sums = clipped.sum(axis=0)
        A_new = column_sums[None, :] - clipped
        self_availability = A_new.diagonal().copy()
        A_new = np.minimum(A_new, 0.0)
        np.fill_diagonal(A_new, self_availability)
        A = damping * A + (1.0 - damping) * A_new

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


def score_oracle(clusters, gold) -> tuple[int, int, int, float]:
    """Per-cluster pairwise label scan; returns (total, correct, correct_words, accuracy)."""
    total = len(clusters)
    correct = 0
    correct_words = 0
    for cluster in clusters:
        covered = [word for word in cluster.members if word in gold]
        pure = len(covered) > 0
        for a in covered:
            for b in covered:
                if gold[a] != gold[b]:
                    pure = False
        if pure:
            correct += 1
            correct_words += len(covered)
    accuracy = correct / total if total else 0.0
    return total, correct, correct_words, accuracy
