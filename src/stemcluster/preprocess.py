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

Every line file goes through ``read_lines`` and ``write_lines``: UTF-8,
LF-ended lines, and a file holding a carriage return is refused, since
split on LF alone a CRLF file would leave a CR on every line.  Writers
open their target through ``open_for_writing`` and write as they format,
into a new file that replaces the target only once the write is whole.
"""

from __future__ import annotations

import errno
import operator
import os
import re
import shutil
import stat
from collections import namedtuple
from contextlib import contextmanager
from itertools import chain, count, islice
from pathlib import Path

from .errors import FormatError, InputEncodingError

_JOINERS = re.compile("[‌‍]")
# the Bengali block but its digits
_KEPT = "ঀ-৥ৰ-৿"
_DROP_RUNS = re.compile(f"[^{_KEPT}]+")
_TOKENS = re.compile(f"[{_KEPT}]+")
_STATS_LINE = re.compile(r"#stats total=([0-9]+) unique=([0-9]+)")
# lines write_lines joins into one write
_WRITE_CHUNK = 4096


def lexicon_sort_key(word: str) -> tuple[int, str]:
    """Canonical word order: code-point length, then lexicographic."""
    return (len(word), word)


class Lexicon(namedtuple("Lexicon", "words total_tokens")):
    """Ordered, deduplicated word list plus the raw token count.

    ``words`` is strictly ascending under :func:`lexicon_sort_key`, which
    both enforces uniqueness and pins the deterministic processing order
    the clustering backends rely on.  Words have two or more characters,
    no whitespace, and neither a leading '#', which marks a comment line,
    nor a leading U+FEFF, which readers drop as a byte-order mark.  A word
    breaking a rule raises ``FormatError`` with ``line`` set to its index
    in ``words``.  ``total_tokens`` is stored as ``operator.index`` gives
    it, so a float is a ``TypeError`` and a bool or numpy integer an int.
    ``len(lexicon)`` is 2, the named tuple's field count.
    """

    __slots__ = ()

    def __new__(cls, words: tuple[str, ...], total_tokens: int):
        self = super().__new__(cls, tuple(words), operator.index(total_tokens))
        if self.unique_tokens > self.total_tokens:
            raise ValueError("unique_tokens cannot exceed total_tokens")
        previous = None
        for index, word in enumerate(self.words):
            if len(word) < 2:
                raise FormatError(f"one-character word {word!r}", line=index)
            if word.split() != [word]:
                raise FormatError(f"word {word!r} contains whitespace", line=index)
            if word.startswith("#"):
                raise FormatError(f"word {word!r} starts with '#', a comment mark", line=index)
            if word.startswith("\ufeff"):
                raise FormatError(f"word {word!r} starts with a byte-order mark", line=index)
            key = lexicon_sort_key(word)
            if previous is not None and key <= previous:
                raise FormatError(
                    f"word {word!r} out of order (expected ascending length, then lexicographic)",
                    line=index,
                )
            previous = key
        return self

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
    """Read a file as strict UTF-8 less one leading byte-order mark; reject anything else."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputEncodingError(f"{path}: not valid UTF-8 ({exc})") from None


def read_lines(path) -> list[str]:
    """The LF-split lines of ``read_text(path)``; a carriage return is refused at its line."""
    text = read_text(path)
    cr = text.find("\r")
    if cr >= 0:
        raise FormatError(
            "carriage return found: CRLF line endings are not supported, convert the file to LF",
            path=path,
            line=text.count("\n", 0, cr) + 1,
        )
    return text.split("\n")


def _new_sibling(target: str) -> tuple[str, int]:
    """A new empty file in ``target``'s directory, open for writing: its path and descriptor."""
    directory = os.path.dirname(target)
    for number in count():
        temporary = os.path.join(directory, f".stemcluster-{os.getpid()}-{number}.tmp")
        try:
            return temporary, os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            pass


@contextmanager
def open_for_writing(path):
    """``path`` opened for text as UTF-8 with no newline translation, all or nothing.

    A regular file or a missing path is written as a new file beside it,
    which replaces it by ``os.replace`` once the ``with`` block ends
    cleanly; on any exception, ``KeyboardInterrupt`` included, the new
    file is removed and the target keeps its bytes.  A symlink is followed
    to the file it names, so the link stays a link, and a replaced file
    keeps its permission bits, but not its owner, which becomes the
    writer, nor its other hard links, which keep the old bytes.  Anything
    else, a FIFO or a device, is written in place, and so is a target
    whose directory refuses the new file (``EACCES``, ``EPERM``) or that
    cannot be replaced because it is mounted on its own (``EBUSY``,
    ``EXDEV``); those writes are not all or nothing.  Nothing is synced to
    disk: this holds against exceptions and signals, not against a crash
    of the machine.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    temporary = None
    if mode is None or stat.S_ISREG(mode):
        target = os.path.realpath(path)
        try:
            temporary, descriptor = _new_sibling(target)
        except PermissionError:  # a directory this user cannot write to
            pass
        except OSError as exc:  # named by the target, as opening it in place would be
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    if temporary is None:
        with open(path, "w", encoding="utf-8", newline="") as file:
            yield file
        return
    try:
        with open(descriptor, "w", encoding="utf-8", newline="") as file:
            if mode is not None:
                os.chmod(temporary, stat.S_IMODE(mode))
            yield file
        try:
            os.replace(temporary, target)
            return
        except OSError as exc:
            if exc.errno not in (errno.EBUSY, errno.EXDEV):
                raise
        # a target mounted on its own: its bytes are overwritten in place
        shutil.copyfile(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise
    os.unlink(temporary)


def write_lines(path, lines) -> None:
    """Write the iterable ``lines`` as UTF-8, each ended by LF; no lines make an empty file.

    Lines are written as they come, ``_WRITE_CHUNK`` at a time, so the file
    is never held whole.  The write is ``open_for_writing``'s: one that
    fails midway, on a full disk or an unencodable line, leaves the target
    as it was.
    """
    lines = iter(lines)
    with open_for_writing(path) as file:
        while chunk := list(islice(lines, _WRITE_CHUNK)):
            file.write("\n".join(chunk))
            file.write("\n")


def parse_word_pairs(lines: list[str], value: str, path) -> dict[str, str]:
    """Rows of ``word<TAB>value`` from a file's lines; blank and '#' lines are skipped.

    ``value`` names the second column in messages.  A word given two
    different values is rejected at the second row.
    """
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
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
    header = f"#stats total={lexicon.total_tokens} unique={lexicon.unique_tokens}"
    write_lines(path, chain([header] if stats else [], lexicon.words))


def read_lexicon(path) -> Lexicon:
    """Parse a lexicon file; a broken ``Lexicon`` rule is reported at its file line.

    A line whose first token is ``#stats`` must be the file's one
    ``#stats total=N unique=M`` line, with ``N >= M`` and ``M`` equal to
    the word count.
    """
    words: list[str] = []
    linenos: list[int] = []
    stats = None
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        if line.startswith("#"):
            if line.split(maxsplit=1)[0] == "#stats":
                match = _STATS_LINE.fullmatch(line)
                if match is None or stats is not None:
                    what = "second #stats line" if match else "expected '#stats total=N unique=M'"
                    raise FormatError(f"{what}, got {line!r}", path=path, line=lineno)
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
