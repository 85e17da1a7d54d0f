"""Seeded input generator for the benchmark.

Everything the benchmark feeds the program comes from here, built from a
single ``random.Random(seed)``: the same seed gives byte-identical files.
It deliberately shares no code with the package or its test helpers, so
neither a refactor nor a test edit can move the inputs.

Words are generated in families: a pseudo-Bangla stem plus a handful of
suffixed forms, with the stem as the family's gold label.  A small share
of words spelled with the precomposed vowel sign U+09CB also appear in
the canonically equivalent decomposed spelling U+09C7 U+09BE, labelled
alike, so Unicode normalization in the program shows up as a change in
lexicon size and accuracy.  Every other word is NFC-stable: the nukta
letters U+09DC/U+09DD/U+09DF (composition exclusions) are never used.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import unicodedata
from dataclasses import dataclass
from pathlib import Path

CONSONANTS = "কখগঘঙচছজঝঞটঠডঢণতথদধনপফবভমযরলশষসহ"
VOWELS = "অআইঈউঊএঐওঔ"
VOWEL_SIGNS = "ািীুূৃেৈোৌ"
SIGNS = "ংঃঁ"
HASANT = "্"
SUFFIXES = (
    "ের", "রা", "টা", "টি", "তে", "কে", "গুলো", "গুলি", "দের", "ে", "র",
    "েরা", "কেই", "টাই", "দেরকে", "গুলোর", "ও", "ই",
)
COMPOSED_O = "\u09cb"
DECOMPOSED_O = "\u09c7\u09be"        # canonically equal to U+09CB
# U+098B never appears in generated families, so a word starting with it
# cannot be in any lexicon and must come back from `stem` unchanged
OOV_MARK = "ঋ"
LATIN_RUNS = ("Dhaka", "page", "ISBN", "p.", "e-mail", "COVID-19", "www", "km")
PUNCT = (",", "।", "?", "!", ";", ":", "—", "...", "'", '"', ")", "॥")
BENGALI_DIGITS = "০১২৩৪৫৬৭৮৯"
ZWJ = "\u200d"
ALTERNATE_SHARE = 0.05                # of the words that contain U+09CB


def lexicon_key(word: str) -> tuple[int, str]:
    """The lexicon's canonical order: code-point length, then code points."""
    return (len(word), word)


def _stem(rng: random.Random) -> str:
    parts = []
    if rng.random() < 0.15:
        parts.append(rng.choice(VOWELS))
    for _ in range(rng.randint(1, 3)):
        parts.append(rng.choice(CONSONANTS))
        roll = rng.random()
        if roll < 0.1:
            parts.append(HASANT + rng.choice(CONSONANTS))
        if roll < 0.55:
            parts.append(rng.choice(VOWEL_SIGNS))
    if rng.random() < 0.08:
        parts.append(rng.choice(SIGNS))
    return "".join(parts)


def families(rng: random.Random, word_target: int) -> tuple[list[list[str]], dict[str, str]]:
    """Families of distinct words, the stem first, until ``word_target`` words.

    Returns (families, gold) where gold maps every word, alternate
    spellings included, to its family stem.  A word another family
    already claimed is skipped, so each word has exactly one label.
    """
    gold: dict[str, str] = {}
    out: list[list[str]] = []
    count = 0
    while count < word_target:
        stem = _stem(rng)
        if len(stem) < 2 or stem in gold:
            continue
        members = [stem]
        for suffix in rng.sample(SUFFIXES, rng.randint(0, 5)):
            word = stem + suffix
            if word not in gold and word not in members:
                members.append(word)
        members = members[: word_target - count]
        for word in list(members):
            gold[word] = stem
            if COMPOSED_O in word and rng.random() < ALTERNATE_SHARE:
                alternate = word.replace(COMPOSED_O, DECOMPOSED_O)
                if alternate not in gold:
                    gold[alternate] = stem
                    members.append(alternate)
        count += len(members)
        out.append(members)
    return out, gold


def oov_words(rng: random.Random, count: int) -> list[str]:
    return [OOV_MARK + _stem(rng) for _ in range(count)]


def _lines(words) -> bytes:
    return "".join(word + "\n" for word in words).encode("utf-8")


def _gold_bytes(gold: dict[str, str]) -> bytes:
    return "".join(f"{w}\t{gold[w]}\n" for w in sorted(gold)).encode("utf-8")


def _decorate(rng: random.Random, token: str) -> str:
    roll = rng.random()
    if roll < 0.01 and len(token) > 2:
        cut = rng.randint(1, len(token) - 1)
        return token[:cut] + ZWJ + token[cut:]
    if roll < 0.09:
        return token + rng.choice(PUNCT)
    if roll < 0.10:
        return "(" + token
    return token


def _noise(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(LATIN_RUNS)
    return "".join(rng.choice(BENGALI_DIGITS) for _ in range(rng.randint(1, 4)))


def corpus_files(seed: int, words: int, tokens_target: int) -> dict[str, bytes]:
    """Raw text, its gold labels and the query stream for `stem`.

    Each family member occurs at least once; the remaining tokens follow a
    Zipf law over families (rank r drawn with weight 1/r), uniform within
    a family.  The query stream is the clean token sequence in corpus
    order with about one OOV word per hundred tokens mixed in.
    """
    rng = random.Random(seed)
    fams, gold = families(rng, words)
    rng.shuffle(fams)
    weights = list(itertools.accumulate(1.0 / rank for rank in range(1, len(fams) + 1)))
    tokens = [word for members in fams for word in members]
    extra = tokens_target - len(tokens)
    for family in rng.choices(fams, cum_weights=weights, k=max(extra, 0)):
        tokens.append(family[rng.randrange(len(family))])
    rng.shuffle(tokens)

    text: list[str] = []
    queries: list[str] = []
    line: list[str] = []
    for token in tokens:
        line.append(_decorate(rng, token))
        queries.append(token)
        if rng.random() < 0.01:
            queries.append(oov_words(rng, 1)[0])
        if rng.random() < 0.02:
            line.append(_noise(rng))
        if len(line) >= 12 and rng.random() < 0.3:
            text.append(" ".join(line))
            line = []
    text.append(" ".join(line))
    return {
        "corpus.txt": ("\n".join(text) + "\n").encode("utf-8"),
        "gold.tsv": _gold_bytes(gold),
        "queries.txt": _lines(queries),
    }


def lexicon_files(seed: int, words: int) -> dict[str, bytes]:
    """A ready lexicon of exactly ``words`` words, its gold and a query list.

    No alternate spellings here: the lexicon file is given to `train`
    directly, and the partition check compares the report with it word
    for word.  Queries are every lexicon word once plus 1% OOV words.
    """
    rng = random.Random(seed)
    fams, gold = families(rng, words + words // 10 + 10)
    lexicon: list[str] = []
    for members in fams:
        lexicon.extend(w for w in members if unicodedata.is_normalized("NFC", w))
        if len(lexicon) >= words:
            break
    lexicon = sorted(lexicon[:words], key=lexicon_key)
    queries = lexicon + oov_words(rng, max(1, words // 100))
    rng.shuffle(queries)
    return {
        "lexicon.txt": _lines(lexicon),
        "gold.tsv": _gold_bytes({w: gold[w] for w in lexicon}),
        "queries.txt": _lines(queries),
    }


def tiny_lexicon() -> bytes:
    """Two related words: the baseline lexicon for AP peak-memory offsets."""
    return _lines(["কাজ", "কাজের"])


@dataclass(frozen=True)
class Inputs:
    directory: Path
    digests: dict[str, str]

    def path(self, name: str) -> Path:
        return self.directory / name


def write_inputs(directory: Path, files: dict[str, bytes]) -> Inputs:
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, data in sorted(files.items()):
        (directory / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return Inputs(directory=directory, digests=digests)
