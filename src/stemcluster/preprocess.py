"""Raw UTF-8 text to a deduplicated Bangla lexicon.

Cleaning keeps only code points from the Bengali Unicode block
(U+0980-U+09FF); every maximal run of anything else collapses to a single
space so that ``word1,word2`` splits into two tokens instead of fusing.
Zero-width (non-)joiners are dropped outright, since turning them into
separators would break conjunct spellings apart.  Bengali digits
(U+09E6-U+09EF) live inside the block but are stripped because they are
digits, not word material.

``tokenize`` turns raw text into those tokens in one pass: once the
joiners are gone, it finds the maximal runs of kept code points, which
are exactly the whitespace-split words of ``clean_text``.  ``preprocess``
and the stem-table lookup both call it.

The ``word<TAB>value`` reader refuses a file holding a carriage return:
split on LF alone, a CRLF file would leave a CR on every value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import FormatError, InputEncodingError

_JOINERS = re.compile("[‌‍]")
# the Bengali block but its digits
_KEPT = "ঀ-৥ৰ-৿"
_DROP_RUNS = re.compile(f"[^{_KEPT}]+")
_TOKENS = re.compile(f"[{_KEPT}]+")
_STATS_LINE = re.compile(r"#stats total=(\d+) unique=(\d+)\s*$")


def lexicon_sort_key(word: str) -> tuple[int, str]:
    """Canonical word order: code-point length, then lexicographic."""
    return (len(word), word)


@dataclass(frozen=True)
class Lexicon:
    """Ordered, deduplicated word list plus the raw token count.

    ``words`` is strictly ascending under :func:`lexicon_sort_key`, which
    both enforces uniqueness and pins the deterministic processing order
    the clustering backends rely on.  Words have two or more characters
    and no whitespace.  A word breaking a rule raises ``FormatError`` with
    ``line`` set to its index in ``words``.
    """

    words: tuple[str, ...]
    total_tokens: int

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        if self.unique_tokens > self.total_tokens:
            raise ValueError("unique_tokens cannot exceed total_tokens")
        previous = None
        for index, word in enumerate(self.words):
            if len(word) < 2:
                raise FormatError(f"one-character word {word!r}", line=index)
            if word.split() != [word]:
                raise FormatError(f"word {word!r} contains whitespace", line=index)
            key = lexicon_sort_key(word)
            if previous is not None and key <= previous:
                raise FormatError(
                    f"word {word!r} out of order (expected ascending length, then lexicographic)",
                    line=index,
                )
            previous = key

    @property
    def unique_tokens(self) -> int:
        return len(self.words)


def clean_text(text: str) -> str:
    """Keep Bengali-block code points but digits; collapse every other run to one space."""
    return _DROP_RUNS.sub(" ", _JOINERS.sub("", text))


def tokenize(text: str) -> list[str]:
    """The tokens of ``clean_text(text)``, in order, in one pass over the text.

    The kept class holds no whitespace, so its maximal runs, found once the
    joiners are gone, are exactly the whitespace-split cleaned text.
    """
    return _TOKENS.findall(_JOINERS.sub("", text))


def build_lexicon(tokens) -> Lexicon:
    """Deduplicate tokens, drop one-character words, sort canonically.

    Tokens are deduplicated before they are stripped, so each distinct
    token is stripped once.  A plain sort followed by a stable sort on
    length gives :func:`lexicon_sort_key` order without a key tuple per
    word.
    """
    tokens = list(tokens)
    words = sorted(word for word in {t.strip() for t in set(tokens)} if len(word) >= 2)
    words.sort(key=len)
    return Lexicon(words=tuple(words), total_tokens=len(tokens))


def read_text(path) -> str:
    """Read a file as strict UTF-8; reject anything else at load time."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputEncodingError(f"{path}: not valid UTF-8 ({exc})") from None


def refuse_carriage_returns(text: str, path) -> None:
    """Raise ``FormatError`` at the first line of ``text`` that holds a CR.

    The readers split on LF alone, so a CRLF file would leave a CR on
    every value it reads.
    """
    cr = text.find("\r")
    if cr >= 0:
        raise FormatError(
            "carriage return found: CRLF line endings are not supported, convert the file to LF",
            path=path,
            line=text.count("\n", 0, cr) + 1,
        )


def parse_word_pairs(text: str, value: str, path) -> dict[str, str]:
    """Rows of ``word<TAB>value`` from a file's text; blank and '#' lines are skipped.

    ``value`` names the second column in messages.  A word given two
    different values is rejected at the second row, and a line holding
    a carriage return before any row is read.
    """
    refuse_carriage_returns(text, path)
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
    """Parse a lexicon file; a broken ``Lexicon`` rule is reported at its file line.

    A ``#stats`` line needs ``total >= unique`` and ``unique`` equal to the word count.
    """
    text = read_text(path)
    words: list[str] = []
    linenos: list[int] = []
    stats = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        if line.startswith("#"):
            match = _STATS_LINE.match(line)
            if match:
                total, unique = int(match.group(1)), int(match.group(2))
                if total < unique:
                    raise FormatError("stats line has total < unique", path=path, line=lineno)
                stats = (lineno, total, unique)
            continue
        words.append(line)
        linenos.append(lineno)
    total = len(words)
    if stats is not None:
        lineno, total, unique = stats
        if unique != len(words):
            raise FormatError(
                f"stats line declares unique={unique} but the file holds {len(words)} words",
                path=path,
                line=lineno,
            )
    try:
        return Lexicon(words=tuple(words), total_tokens=total)
    except FormatError as exc:
        raise FormatError(str(exc), path=path, line=linenos[exc.line]) from None
