"""Output checks, written against the documented file formats only.

Each check returns a list of failure messages; an empty list means the
output is correct.  None of them imports the package, so they keep
working, unchanged, across refactors of the program.
"""

from __future__ import annotations

import json
import unicodedata
from pathlib import Path

from inputs import lexicon_key

TABLE_MAGIC = "#stemcluster v1"


def read_words(path: Path) -> list[str]:
    """Lexicon words in file order, header lines skipped."""
    text = path.read_text(encoding="utf-8")
    return [line for line in text.split("\n") if line and not line.startswith("#")]


def read_gold(path: Path) -> dict[str, str]:
    gold = {}
    for line in path.read_text(encoding="utf-8").split("\n"):
        if line and not line.startswith("#"):
            word, label = line.split("\t")
            gold[word] = label
    return gold


def read_report(path: Path) -> list[tuple[str, list[str]]]:
    """(stem, members) pairs from either report layout."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    entries = payload["clusters"] if isinstance(payload, dict) else payload
    return [(entry["stem"], list(entry["members"])) for entry in entries]


def read_table(path: Path) -> tuple[str, dict[str, str]]:
    lines = path.read_text(encoding="utf-8").split("\n")
    rows = {}
    for line in lines[1:]:
        if line and not line.startswith("#"):
            word, stem = line.split("\t")
            rows[word] = stem
    return lines[0], rows


def guarded(check, *args):
    """Run a check; output it cannot parse fails the check instead of the run."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output ({type(exc).__name__}: {exc})"]


def check_lexicon(path: Path, stdout: bytes) -> list[str]:
    """Canonical order, no duplicates, and a stats header that matches."""
    lines = path.read_text(encoding="utf-8").split("\n")
    words = [line for line in lines if line and not line.startswith("#")]
    failures = []
    keys = [lexicon_key(word) for word in words]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        failures.append("lexicon not strictly ascending by (length, word)")
    if not lines[0].startswith("#stats ") or f"unique={len(words)}" not in lines[0]:
        failures.append(f"stats header {lines[0]!r} does not match {len(words)} words")
    if lines[0][len("#stats "):].encode("utf-8") not in stdout:
        failures.append("preprocess stdout disagrees with the stats header")
    return failures


def check_training(lexicon: list[str], table: Path, report: Path) -> list[str]:
    """The report partitions the lexicon, stems are shortest members, the
    stem table maps exactly the report's words to their cluster stems."""
    failures = []
    clusters = read_report(report)
    members = [word for _stem, group in clusters for word in group]
    if len(members) != len(set(members)):
        failures.append("a word appears in more than one cluster")
    if set(members) != set(lexicon) or len(members) != len(lexicon):
        failures.append(f"report covers {len(set(members))} words, lexicon has {len(lexicon)}")
    bad_stems = sum(1 for stem, group in clusters if stem != min(group, key=lexicon_key))
    if bad_stems:
        failures.append(f"{bad_stems} clusters whose stem is not their shortest member")
    header, rows = read_table(table)
    if not header.startswith(TABLE_MAGIC):
        failures.append(f"stem table header {header!r}")
    expected = {word: stem for stem, group in clusters for word in group}
    if rows != expected:
        wrong = sum(1 for word in expected if rows.get(word) != expected[word])
        failures.append(f"stem table disagrees with the report on {wrong} words "
                        f"({len(rows)} rows, {len(expected)} report words)")
    return failures


def recount_accuracy(report: Path, gold: dict[str, str]) -> tuple[int, int]:
    """(correct clusters, total clusters) by the documented rule."""
    clusters = read_report(report)
    correct = 0
    for _stem, group in clusters:
        labels = {gold[word] for word in group if word in gold}
        correct += len(labels) == 1
    return correct, len(clusters)


def check_evaluation(stdout: bytes, report: Path, gold: dict[str, str],
                     accuracy_out: dict[str, float], backend: str) -> list[str]:
    """`evaluate` output must match the benchmark's own recount exactly."""
    result = json.loads(stdout)
    correct, total = recount_accuracy(report, gold)
    accuracy = correct / total if total else 0.0
    failures = []
    if (result.get("correct_clusters"), result.get("total_clusters")) != (correct, total):
        failures.append(f"evaluate counted {result.get('correct_clusters')}/"
                        f"{result.get('total_clusters')}, recount {correct}/{total}")
    if result.get("accuracy") != accuracy:
        failures.append(f"evaluate accuracy {result.get('accuracy')} != recount {accuracy}")
    accuracy_out[backend] = accuracy
    return failures


def expected_stem(rows: dict[str, str], query: str) -> str:
    """Table stem of a query; canonically equivalent spellings may share an
    entry, so the NFC form is looked up too.  Unknown words pass through."""
    if query in rows:
        return rows[query]
    return rows.get(unicodedata.normalize("NFC", query), query)


def check_stems(stdout: bytes, queries: list[str], table: Path) -> list[str]:
    _header, rows = read_table(table)
    got = stdout.decode("utf-8").split("\n")
    if got and got[-1] == "":
        got.pop()
    if len(got) != len(queries):
        return [f"stem printed {len(got)} lines for {len(queries)} queries"]
    wrong = sum(1 for query, stem in zip(queries, got) if stem != expected_stem(rows, query))
    return [f"{wrong} queries did not come back as their table stem"] if wrong else []


def check_refusal(code: int, stderr: bytes, rss_delta: float, words: int,
                  artifacts: list[Path]) -> list[str]:
    """Exit 1 with exactly one `error:` line, no traceback, no artifacts, and
    no sign of an n x n allocation in the peak RSS."""
    failures = []
    if code != 1:
        failures.append(f"oversized run exited {code}, expected 1")
    lines = stderr.decode("utf-8", "replace").strip().split("\n")
    if len(lines) != 1 or not lines[0].startswith("error:"):
        failures.append(f"expected one 'error:' line, got {lines!r:.200}")
    if b"Traceback" in stderr:
        failures.append("traceback on stderr")
    if rss_delta > words * words * 8 / 64:
        failures.append(f"refused run grew RSS by {rss_delta / 2**20:.0f} MiB")
    failures.extend(f"refused run wrote {path.name}" for path in artifacts if path.exists())
    return failures
