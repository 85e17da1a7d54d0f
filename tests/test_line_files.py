"""Every line file round-trips through its writer and reader, and its readers share one contract.

Lexicons, stem tables and gold files are read through ``read_lines`` (UTF-8
less one leading byte-order mark, a carriage return refused at its line,
split on LF); lexicons, stem tables and cluster reports are written through
``write_lines``.
"""

import codecs
import json
import string

import pytest
from hypothesis import given, strategies as st

from stemcluster import (
    load_gold,
    read_cluster_report,
    read_lexicon,
    read_stem_table,
    write_cluster_report,
    write_lexicon,
    write_stem_table,
)
from stemcluster.ap import COEFFICIENT, MEDIAN
from stemcluster.clusters import Cluster
from stemcluster.errors import FormatError
from stemcluster.greedy import StemTable
from stemcluster.ngrams import GRAM_ORDERS
from stemcluster.preprocess import Lexicon, lexicon_sort_key, read_lines, write_lines

from helpers import BANGLA_LETTERS

# '#' may stand inside a word but not at its start, where it marks a comment;
# U+FEFF is left out: one leading byte-order mark is dropped by design, so no
# lexicon word may start with it
words = st.text(
    alphabet=st.sampled_from(BANGLA_LETTERS + string.ascii_letters + "#"), min_size=2, max_size=6
).filter(lambda word: not word.startswith("#"))


@st.composite
def partitions(draw):
    """Clusters over distinct words, each with a stem drawn from its members."""
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
