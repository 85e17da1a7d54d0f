"""Raw UTF-8 text to a deduplicated Bangla lexicon.

Cleaning keeps only code points from the Bengali Unicode block
(U+0980-U+09FF); every maximal run of anything else collapses to a single
space so that ``word1,word2`` splits into two tokens instead of fusing.
Zero-width (non-)joiners are dropped outright, since turning them into
separators would break conjunct spellings apart.  Bengali digits
(U+09E6-U+09EF) live inside the block but are stripped by default because
they are digits, not word material.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import FormatError, InputEncodingError

BENGALI_FIRST = 0x0980
BENGALI_LAST = 0x09FF

_JOINERS = re.compile("[‌‍]")
_DROP_RUNS = re.compile("[^ঀ-৥ৰ-৿]+")          # digits stripped
_DROP_RUNS_KEEP_DIGITS = re.compile("[^ঀ-৿]+")
_STATS_LINE = re.compile(r"#stats total=(\d+) unique=(\d+)\s*$")


def lexicon_sort_key(word: str) -> tuple[int, str]:
    """Canonical word order: code-point length, then lexicographic."""
    return (len(word), word)


@dataclass(frozen=True)
class Lexicon:
    """Ordered, deduplicated word list plus raw-token bookkeeping.

    ``words`` is strictly ascending under :func:`lexicon_sort_key`, which
    both enforces uniqueness and pins the deterministic processing order
    the clustering backends rely on.
    """

    words: tuple[str, ...]
    total_tokens: int
    unique_tokens: int

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        if self.unique_tokens != len(self.words):
            raise ValueError("unique_tokens must equal the number of words")
        if self.unique_tokens > self.total_tokens:
            raise ValueError("unique_tokens cannot exceed total_tokens")
        previous = None
        for word in self.words:
            if len(word) < 2:
                raise ValueError(f"one-character word {word!r} not allowed in a lexicon")
            if any(ch.isspace() for ch in word):
                raise ValueError(f"word {word!r} contains whitespace")
            key = lexicon_sort_key(word)
            if previous is not None and key <= previous:
                raise ValueError("words must be strictly ascending by (length, lexicographic)")
            previous = key


def clean_text(text: str, strip_bengali_digits: bool = True) -> str:
    """Keep Bengali-block code points; collapse every other run to one space."""
    text = _JOINERS.sub("", text)
    pattern = _DROP_RUNS if strip_bengali_digits else _DROP_RUNS_KEEP_DIGITS
    return pattern.sub(" ", text)


def tokenize(text: str) -> list[str]:
    """Split cleaned text on whitespace runs, keeping order, no empties."""
    return text.split()


def build_lexicon(tokens) -> Lexicon:
    """Deduplicate tokens, drop one-character words, sort canonically."""
    tokens = list(tokens)
    trimmed = (token.strip() for token in tokens)
    words = sorted({t for t in trimmed if len(t) >= 2}, key=lexicon_sort_key)
    return Lexicon(words=tuple(words), total_tokens=len(tokens), unique_tokens=len(words))


def read_text(path) -> str:
    """Read a file as strict UTF-8; reject anything else at load time."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputEncodingError(f"{path}: not valid UTF-8 ({exc})") from None


def parse_word_pairs(text: str, value: str, path) -> dict[str, str]:
    """Rows of ``word<TAB>value`` from a file's text; blank and '#' lines are skipped.

    ``value`` names the second column in messages.  A word given two
    different values is rejected at the second row.
    """
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise FormatError(f"expected 'word<TAB>{value}', got {line!r}", path=path, line=lineno)
        word, given = fields
        if pairs.setdefault(word, given) != given:
            raise FormatError(
                f"word {word!r} has two {value}s, {pairs[word]!r} and {given!r}",
                path=path,
                line=lineno,
            )
    return pairs


def write_lexicon(lexicon: Lexicon, path, stats: bool = False) -> None:
    """One word per line in lexicon order, LF endings, optional stats header."""
    lines = []
    if stats:
        lines.append(f"#stats total={lexicon.total_tokens} unique={lexicon.unique_tokens}")
    lines.extend(lexicon.words)
    body = "\n".join(lines)
    if body:
        body += "\n"
    Path(path).write_bytes(body.encode("utf-8"))


def read_lexicon(path) -> Lexicon:
    """Parse a lexicon file, enforcing the canonical order with line numbers."""
    text = read_text(path)
    words: list[str] = []
    total = None
    previous_key = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        if line.startswith("#"):
            match = _STATS_LINE.match(line)
            if match:
                total = int(match.group(1))
                declared_unique = int(match.group(2))
                if total < declared_unique:
                    raise FormatError("stats line has total < unique", path=path, line=lineno)
            continue
        word = line
        if len(word) < 2:
            raise FormatError(f"one-character word {word!r}", path=path, line=lineno)
        if any(ch.isspace() for ch in word):
            raise FormatError(f"word {word!r} contains whitespace", path=path, line=lineno)
        key = lexicon_sort_key(word)
        if previous_key is not None and key <= previous_key:
            raise FormatError(
                f"word {word!r} out of order (expected ascending length, then lexicographic)",
                path=path,
                line=lineno,
            )
        previous_key = key
        words.append(word)
    if total is None:
        total = len(words)
    if total < len(words):
        raise FormatError("stats total smaller than word count", path=path)
    return Lexicon(words=tuple(words), total_tokens=total, unique_tokens=len(words))
