"""Every line file round-trips through its writer and reader, and its readers share one contract.

Lexicons, stem tables and gold files are read through ``read_lines`` (UTF-8
less one leading byte-order mark, a carriage return refused at its line,
split on LF); lexicons and stem tables are written through ``write_lines``,
and cluster reports through the same ``open_for_writing``.  Writers write
as they format, so none holds its file's text whole.
"""

import codecs
import errno
import json
import os
import stat
import string
import threading
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stemcluster import (
    load_gold,
    preprocess,
    read_cluster_report,
    read_lexicon,
    read_stem_table,
    write_cluster_report,
    write_lexicon,
    write_stem_table,
)
from stemcluster.ap import COEFFICIENT, MEDIAN
from stemcluster.clusters import Cluster
from stemcluster.errors import FormatError, PartitionError
from stemcluster.greedy import StemTable, stem_table_from_clusters
from stemcluster.ngrams import GRAM_ORDERS
from stemcluster.preprocess import _WRITE_CHUNK, Lexicon, lexicon_sort_key, read_lines, write_lines

from helpers import BANGLA_LETTERS, synthetic_lexicon

# '#' may stand inside a word but not at its start, where it marks a comment;
# U+FEFF is left out: one leading byte-order mark is dropped by design, so no
# lexicon word may start with it
words = st.text(
    alphabet=st.sampled_from(BANGLA_LETTERS + string.ascii_letters + "#"), min_size=2, max_size=6
).filter(lambda word: not word.startswith("#"))


@st.composite
def partitions(draw, words=words):
    """Clusters over distinct ``words``, each with a stem drawn from its members."""
    pool = draw(st.lists(words, unique=True, max_size=12))
    clusters = []
    while pool:
        size = draw(st.integers(1, len(pool)))
        members, pool = tuple(pool[:size]), pool[size:]
        clusters.append(Cluster(stem=draw(st.sampled_from(members)), members=members))
    return clusters


# any line text but a surrogate, which UTF-8 cannot encode, and a line break
line_texts = st.text(alphabet=st.characters(exclude_categories=("Cs",), exclude_characters="\r\n"))


@given(lines=st.lists(line_texts, max_size=6))
def test_write_lines_then_read_lines(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "lines.txt"
    write_lines(path, lines)
    data = path.read_bytes()
    assert data == "".join(line + "\n" for line in lines).encode("utf-8")
    if not data.startswith(codecs.BOM_UTF8):
        assert read_lines(path) == [*lines, ""]


@pytest.mark.parametrize(
    "count", [0, 1, _WRITE_CHUNK - 1, _WRITE_CHUNK, _WRITE_CHUNK + 1, 2 * _WRITE_CHUNK + 1]
)
def test_write_lines_is_one_join_whatever_the_chunks(tmp_path, count):
    lines = [f"line {i} কখ" for i in range(count)]
    expected = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
    write_lines(tmp_path / "list.txt", lines)
    assert (tmp_path / "list.txt").read_bytes() == expected
    write_lines(tmp_path / "generator.txt", (line for line in lines))
    assert (tmp_path / "generator.txt").read_bytes() == expected


def _chunk_then_fail(error):
    yield from (f"line {i}" for i in range(_WRITE_CHUNK + 5))
    raise error


# a write that fails midway: an unencodable line, a generator that raises
# after a first chunk is written, an interrupt
@pytest.mark.parametrize(
    "lines, error",
    [(lambda: ["ab", "\ud800x"], UnicodeEncodeError),
     (lambda: _chunk_then_fail(ValueError("no more lines")), ValueError),
     (lambda: _chunk_then_fail(KeyboardInterrupt()), KeyboardInterrupt)],
    ids=["unencodable", "raising-generator", "interrupt"],
)
@pytest.mark.parametrize("exists", [True, False])
def test_a_write_that_fails_midway_leaves_the_target_as_it_was(tmp_path, lines, error, exists):
    path = tmp_path / "a.txt"
    if exists:
        path.write_bytes(b"old\n")
    with pytest.raises(error):
        write_lines(path, lines())
    # no new file is left beside it
    assert os.listdir(tmp_path) == (["a.txt"] if exists else [])
    if exists:
        assert path.read_bytes() == b"old\n"


@pytest.mark.parametrize("error", [UnicodeEncodeError, KeyboardInterrupt])
def test_a_report_write_that_fails_midway_leaves_the_target_as_it_was(
    tmp_path, monkeypatch, error
):
    path = tmp_path / "report.json"
    write_cluster_report(path, [Cluster("ab", ("ab", "abc"))])
    before = path.read_bytes()
    # a word UTF-8 cannot encode fails after the clusters before it are written
    clusters = [Cluster("ab", ("ab",)), Cluster("\ud800x", ("\ud800x",))]
    if error is KeyboardInterrupt:
        def interrupted(payload, file, **kwargs):
            file.write("[")
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", interrupted)
        clusters = clusters[:1]
    with pytest.raises(error):
        write_cluster_report(path, clusters)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["report.json"]


def test_a_replaced_target_keeps_its_permission_bits_and_a_new_one_gets_the_umask(tmp_path):
    path = tmp_path / "a.txt"
    path.write_bytes(b"old\n")
    path.chmod(0o604)
    write_lines(path, ["new"])
    assert path.read_bytes() == b"new\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o604
    # a new file gets what opening it in place would give it
    (tmp_path / "plain.txt").write_bytes(b"")
    write_lines(tmp_path / "new.txt", ["new"])
    assert (tmp_path / "new.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


def test_a_symlinked_target_stays_a_link(tmp_path):
    real = tmp_path / "real.txt"
    real.write_bytes(b"old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    write_lines(link, ["new"])
    assert link.is_symlink()
    assert real.read_bytes() == b"new\n"
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_fifo_target_is_written_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        write_lines(fifo, ["কখ", "গঘ"])
    finally:
        reader.join(timeout=60)
    assert received == ["কখ\nগঘ\n".encode("utf-8")]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


def _refused(*args):
    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


def _busy(*args):
    raise OSError(errno.EBUSY, os.strerror(errno.EBUSY))


# a directory that refuses the new file, or a target mounted on its own,
# is written in place as opening it would write it: same file, new bytes
@pytest.mark.parametrize(
    "refusal",
    [(preprocess, "_new_sibling", _refused), (os, "replace", _busy)],
    ids=["sibling", "replace"],
)
def test_a_target_that_cannot_be_replaced_is_written_in_place(tmp_path, monkeypatch, refusal):
    path = tmp_path / "a.txt"
    path.write_bytes(b"old\n")
    inode = path.stat().st_ino
    monkeypatch.setattr(*refusal)
    write_lines(path, ["new"])
    assert path.read_bytes() == b"new\n"
    assert path.stat().st_ino == inode
    assert os.listdir(tmp_path) == ["a.txt"]


def test_a_replace_that_fails_otherwise_leaves_the_target_as_it_was(tmp_path, monkeypatch):
    path = tmp_path / "a.txt"
    path.write_bytes(b"old\n")

    def failing(*args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match=os.strerror(errno.EIO)):
        write_lines(path, ["new"])
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["a.txt"]


def test_a_target_that_cannot_be_created_is_named_as_opening_it_would_name_it(tmp_path):
    path = tmp_path / "missing" / "a.txt"
    with pytest.raises(FileNotFoundError) as opened:
        open(path, "w", encoding="utf-8")
    with pytest.raises(FileNotFoundError) as written:
        write_lines(path, ["ab"])
    assert str(written.value) == str(opened.value)


@given(pool=st.lists(words, unique=True, max_size=12), extra=st.integers(0, 5), stats=st.booleans())
def test_lexicon_round_trip(tmp_path_factory, pool, extra, stats):
    lexicon = Lexicon(
        words=tuple(sorted(pool, key=lexicon_sort_key)), total_tokens=len(pool) + extra
    )
    path = tmp_path_factory.getbasetemp() / "lexicon.txt"
    write_lexicon(lexicon, path, stats=stats)
    loaded = read_lexicon(path)
    assert loaded.words == lexicon.words
    assert loaded.total_tokens == (lexicon.total_tokens if stats else len(pool))


@given(
    entries=st.dictionaries(words, words, max_size=12),
    order=st.sampled_from((*GRAM_ORDERS, MEDIAN)),
    threshold=st.none() | st.floats(0, 1, exclude_min=True, exclude_max=True),
)
def test_stem_table_round_trip(tmp_path_factory, entries, order, threshold):
    table = StemTable(entries=entries, order=order, threshold=threshold)
    path = tmp_path_factory.getbasetemp() / "table.tsv"
    write_stem_table(table, path)
    assert read_stem_table(path) == table


@pytest.mark.parametrize("threshold", [np.float64(0.06), np.float32(0.06)])
def test_stem_table_round_trip_with_a_numpy_threshold(tmp_path, threshold):
    table = StemTable(entries={"কখগ": "কখ"}, order="2", threshold=threshold)
    path = tmp_path / "table.tsv"
    write_stem_table(table, path)
    assert read_lines(path)[0] == f"#stemcluster v1 order=2 threshold={float(threshold)!r}"
    loaded = read_stem_table(path)
    assert loaded.threshold == float(threshold)
    assert loaded.entries == table.entries


# every row read_stem_table would refuse (an empty field, a TAB, LF or CR in
# one) or skip (a word starting with '#'), after a readable row and before one
@pytest.mark.parametrize("neighbour", ["!!", "zz"])
@pytest.mark.parametrize(
    "word, stem",
    [
        ("ab\nxy", "ab"),
        ("ab", "a\tb"),
        ("#ab", "ab"),
        ("", "ab"),
        ("ab", ""),
        ("a\tb", "ab"),
        ("ab", "a\nb"),
        ("a\rb", "ab"),
        ("ab", "a\rb"),
    ],
)
def test_stem_table_writer_refuses_a_row_its_reader_cannot_read_back(
    tmp_path, neighbour, word, stem
):
    path = tmp_path / "table.tsv"
    write_stem_table(StemTable({"কখ": "কখ", "কখগ": "কখ"}, "2", 0.06), path)
    before = path.read_bytes()
    table = StemTable({neighbour: neighbour, word: stem}, "2", 0.06)
    with pytest.raises(FormatError) as err:
        write_stem_table(table, path)
    assert str(path) in str(err.value)
    assert repr(word) in str(err.value)
    # refused as its chunk of rows is written, so the old table is untouched
    assert path.read_bytes() == before


def test_stem_table_writer_checks_every_chunk_of_rows(tmp_path):
    # the bad row sorts last, into the second chunk of rows the check reads
    entries = {f"w{i:05d}": "w00000" for i in range(_WRITE_CHUNK)}
    entries["z\tz"] = "w00000"
    path = tmp_path / "table.tsv"
    with pytest.raises(FormatError) as err:
        write_stem_table(StemTable(entries, "2", 0.06), path)
    assert repr("z\tz") in str(err.value)
    assert not path.exists()


# short fields over the characters a row can break on
row_fields = st.text(alphabet=st.sampled_from("ab#\t\n\r "), max_size=3)


@given(entries=st.dictionaries(row_fields, row_fields, max_size=4))
def test_stem_table_writer_refuses_exactly_what_its_reader_cannot_read_back(
    tmp_path_factory, entries
):
    table = StemTable(entries, "2", 0.5)
    base = tmp_path_factory.getbasetemp()
    # the writer's bytes, written without its check
    rows = "".join(f"{word}\t{entries[word]}\n" for word in sorted(entries))
    (base / "raw.tsv").write_bytes(f"#stemcluster v1 order=2 threshold=0.5\n{rows}".encode())
    try:
        readable = read_stem_table(base / "raw.tsv") == table
    except FormatError:
        readable = False
    if readable:
        write_stem_table(table, base / "table.tsv")
        assert read_stem_table(base / "table.tsv") == table
    else:
        with pytest.raises(FormatError):
            write_stem_table(table, base / "table.tsv")


# any text JSON must escape or may pass through: quotes, backslashes,
# control characters and astral code points; no surrogate, which UTF-8
# cannot encode
json_words = st.text(
    alphabet=st.sampled_from('"\\/\x00\x1f\x7f\u2028\U0001f600কখ')
    | st.characters(exclude_categories=("Cs",)),
    min_size=1,
    max_size=6,
)


@given(
    clusters=partitions(json_words),
    exemplar_run=st.booleans(),
    mode=st.sampled_from([COEFFICIENT, MEDIAN]),
    converged=st.booleans(),
    iterations=st.integers(0, 10_000),
    data=st.data(),
)
def test_streamed_report_is_the_indented_json_text(
    tmp_path_factory, clusters, exemplar_run, mode, converged, iterations, data
):
    path = tmp_path_factory.getbasetemp() / "report.json"
    entries = [{"stem": c.stem, "members": list(c.members)} for c in clusters]
    if exemplar_run:
        exemplars = [data.draw(st.sampled_from(cluster.members)) for cluster in clusters]
        for entry, exemplar in zip(entries, exemplars):
            entry["exemplar"] = exemplar
        payload = {"mode": mode, "converged": converged, "iterations": iterations,
                   "clusters": entries}
        write_cluster_report(path, clusters, exemplars=exemplars, mode=mode,
                             converged=converged, iterations=iterations)
    else:
        payload = entries
        write_cluster_report(path, clusters)
    expected = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def test_writers_do_not_hold_their_file_whole(tmp_path):
    # a 16 000-word partition: the report's text is about 0.7 MB and the
    # table's 0.65 MB; formatted whole and then encoded, they would peak
    # near 5.7 and 2.8 MiB of traced memory
    words = synthetic_lexicon(16_000, seed=3).words
    clusters = [Cluster(stem=words[i], members=words[i : i + 4]) for i in range(0, len(words), 4)]
    table = stem_table_from_clusters(clusters, order="2", threshold=0.6)
    writers = {
        "report": (lambda: write_cluster_report(tmp_path / "report.json", clusters), 2.5),
        "table": (lambda: write_stem_table(table, tmp_path / "table.tsv"), 1.75),
    }
    for name, (write, bound_mib) in writers.items():
        write()  # once untraced, so nothing lazily loaded is counted
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            write()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, name


@given(clusters=partitions())
def test_plain_cluster_report_round_trip(tmp_path_factory, clusters):
    path = tmp_path_factory.getbasetemp() / "report.json"
    write_cluster_report(path, clusters)
    assert read_cluster_report(path) == (clusters, {})


@given(
    clusters=partitions(),
    mode=st.sampled_from([COEFFICIENT, MEDIAN]),
    converged=st.booleans(),
    iterations=st.integers(0, 10_000),
    data=st.data(),
)
def test_exemplar_cluster_report_round_trip(
    tmp_path_factory, clusters, mode, converged, iterations, data
):
    exemplars = [data.draw(st.sampled_from(cluster.members)) for cluster in clusters]
    path = tmp_path_factory.getbasetemp() / "report.json"
    write_cluster_report(
        path, clusters, exemplars=exemplars, mode=mode, converged=converged, iterations=iterations
    )
    meta = {"mode": mode, "converged": converged, "iterations": iterations}
    assert read_cluster_report(path) == (clusters, meta)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert [entry["exemplar"] for entry in payload["clusters"]] == exemplars


# a record with a cluster's fields but none of its rules
RawCluster = namedtuple("RawCluster", "stem members")


# few words, so clusters often share one
@st.composite
def raw_clusters(draw, words=st.sampled_from(["ab", "cd", "ef", "gh"])):
    """Cluster-shaped records, about half of them valid, the rest breaking one ``Cluster`` rule."""
    members = draw(st.lists(words, min_size=1, max_size=3, unique=True))
    stem = draw(st.sampled_from(members))
    fault = draw(st.none() | st.sampled_from(
        ["stem", "member", "str", "empty", "repeated", "outsider"]))
    if fault == "stem":
        stem = draw(st.sampled_from([1, None]))
    elif fault == "member":
        members[-1] = draw(st.sampled_from([1, None]))
    elif fault == "str":
        members = "".join(members)
    elif fault == "empty":
        members = []
    elif fault == "repeated":
        members.append(members[0])
    elif fault == "outsider":
        stem = "zz"
    return RawCluster(stem, members)


@given(clusters=st.lists(raw_clusters(), max_size=4), exemplar_run=st.booleans())
def test_cluster_report_writer_refuses_exactly_what_its_reader_refuses(
    tmp_path_factory, clusters, exemplar_run
):
    base = tmp_path_factory.getbasetemp()
    entries = [c._asdict() for c in clusters]
    run = {}
    if exemplar_run:
        run = dict(exemplars=[c.stem for c in clusters], mode=COEFFICIENT, converged=False,
                   iterations=7)
        for entry, exemplar in zip(entries, run["exemplars"]):
            entry["exemplar"] = exemplar
        payload = {key: run[key] for key in ("mode", "converged", "iterations")}
        payload["clusters"] = entries
    else:
        payload = entries
    # the writer's bytes, written without its checks
    raw = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    (base / "raw.json").write_bytes(raw.encode())
    try:
        expected = read_cluster_report(base / "raw.json")
    except FormatError:
        expected = None
    target = base / "report.json"
    target.write_bytes(b"old report")
    if expected is not None:
        write_cluster_report(target, clusters, **run)
        assert target.read_bytes() == raw.encode()
        assert read_cluster_report(target) == expected
    else:
        with pytest.raises((PartitionError, TypeError, ValueError)):
            write_cluster_report(target, clusters, **run)
        assert target.read_bytes() == b"old report"


@pytest.mark.parametrize(
    "read, head, rows, expected",
    [
        pytest.param(
            lambda path: read_lexicon(path).words, [], ["কখ", "গঘ"], ("কখ", "গঘ"),
            id="read_lexicon",
        ),
        pytest.param(
            load_gold, [], ["কখ\tক", "গঘ\tগ"], {"কখ": "ক", "গঘ": "গ"}, id="load_gold",
        ),
        pytest.param(
            lambda path: read_stem_table(path).entries,
            ["#stemcluster v1 order=2 threshold=0.06"],
            ["কখ\tক", "গঘ\tগ"],
            {"কখ": "ক", "গঘ": "গ"},
            id="read_stem_table",
        ),
    ],
)
def test_line_file_reader_contract(tmp_path, read, head, rows, expected):
    """``head`` is what the file needs before its rows; ``expected`` is what two rows read as."""
    path = tmp_path / "file.txt"
    # one leading byte-order mark is dropped
    path.write_bytes(codecs.BOM_UTF8 + "".join(line + "\n" for line in head + rows).encode("utf-8"))
    assert read(path) == expected
    # blank and '#' lines are skipped
    lines = head + ["", rows[0], "#", "# note", "", rows[1], ""]
    path.write_text("\n".join(lines), encoding="utf-8")
    assert read(path) == expected
    # a carriage return is refused at the first line holding one
    lines = head + [rows[0], "", "# note"]
    path.write_bytes(("".join(line + "\n" for line in lines) + rows[1] + "\r\n").encode("utf-8"))
    with pytest.raises(FormatError, match="CRLF line endings are not supported") as err:
        read(path)
    assert err.value.line == len(lines) + 1
    assert str(err.value).startswith(f"{path}:{len(lines) + 1}: ")
