"""Cluster container shared by both backends, plus the JSON report files.

The cluster rules live here once: ``Cluster`` checks one cluster, and
``check_partition`` checks that no word is in two clusters.  The report
reader, the report writer and ``greedy.stem_table_from_clusters`` all ask
them, so the writer refuses exactly what its reader would refuse.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat

from .errors import FormatError, PartitionError
from .preprocess import lexicon_sort_key, open_for_writing, read_text


def select_stem(members) -> str:
    """The smallest member under (code-point length, lexicographic) order."""
    return min(members, key=lexicon_sort_key)


class Cluster(namedtuple("Cluster", "stem members")):
    """A stem and its members, a tuple of pairwise distinct strings.

    The stem is a ``str`` and one of the members.  A stem or member that is
    not a ``str``, or one ``str`` given as the members (which ``tuple``
    would split into characters), raises ``TypeError``; no members,
    repeated members or a stem outside them raise ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, stem: str, members: tuple[str, ...]):
        if not isinstance(stem, str):
            raise TypeError(f"a cluster's stem must be a str, not {type(stem).__name__}")
        if isinstance(members, str):
            raise TypeError("a cluster's members must be a collection of str, not one str")
        self = super().__new__(cls, stem, tuple(members))
        if not all(map(isinstance, self.members, repeat(str))):
            raise TypeError("a cluster's members must all be str")
        if not self.members:
            raise ValueError("a cluster needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError("cluster members must be pairwise distinct")
        if self.stem not in self.members:
            raise ValueError(f"stem {self.stem!r} is not a member of its cluster")
        return self


def check_partition(clusters) -> None:
    """Refuse clusters that share a word, with ``PartitionError``.

    The error names the first word, in cluster order and then member
    order, that an earlier cluster already holds.
    """
    seen: set[str] = set()
    for cluster in clusters:
        members = cluster.members
        if not seen.isdisjoint(members):
            word = next(word for word in members if word in seen)
            raise PartitionError(f"word {word!r} appears in more than one cluster")
        seen.update(members)


def write_cluster_report(
    path,
    clusters,
    *,
    exemplars=None,
    mode: str | None = None,
    converged: bool | None = None,
    iterations: int | None = None,
) -> None:
    """Write the cluster report JSON through ``open_for_writing``, by
    ``write_cluster_report_to``: a write that fails midway, or clusters
    that ``read_cluster_report`` would refuse, leave the target as it was.
    """
    with open_for_writing(path) as file:
        write_cluster_report_to(file, clusters, exemplars=exemplars, mode=mode,
                                converged=converged, iterations=iterations)


def write_cluster_report_to(
    file,
    clusters,
    *,
    exemplars=None,
    mode: str | None = None,
    converged: bool | None = None,
    iterations: int | None = None,
) -> None:
    """``write_cluster_report`` into an open text file.

    Plain runs produce a bare array of {stem, members}.  When the
    exemplar-based backend supplies its exemplars (and with them its
    mode, converged and iterations), each entry gains its exemplar and the
    array is wrapped in an object carrying {mode, converged, iterations}.
    The JSON is written as it is encoded, so its text is never held whole.

    Clusters that ``read_cluster_report`` would refuse are refused before
    anything is written: first by ``check_partition``, then by ``Cluster``,
    through which each cluster is made again, so a record that skipped its
    rules (``Cluster._make``, ``_replace``, or any object with ``stem`` and
    ``members``) is caught too.
    """
    import json
    clusters = list(clusters)
    # the check's set is freed before the payload's dicts are built
    check_partition(clusters)
    # the fields are the JSON keys; a tuple of members is written as an array
    entries = [Cluster(c.stem, c.members)._asdict() for c in clusters]
    if exemplars is None:
        payload = entries
    else:
        for entry, exemplar in zip(entries, exemplars, strict=True):
            entry["exemplar"] = exemplar
        payload = {
            "mode": mode,
            "converged": converged,
            "iterations": iterations,
            "clusters": entries,
        }
    json.dump(payload, file, ensure_ascii=False, indent=2)
    file.write("\n")


def read_cluster_report(path) -> tuple[list[Cluster], dict]:
    """Load a cluster report; returns (clusters, run-level metadata).

    Each entry must be an object with a ``stem`` and a ``members`` list
    that make a ``Cluster``, and the clusters must pass
    ``check_partition``; any fault is a ``FormatError`` naming the path.
    Every entry is checked before the partition, so a file with both a
    malformed entry and a word in two clusters reports its first
    malformed entry, wherever the overlap stands.
    """
    import json
    text = read_text(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON ({exc})", path=path) from None
    except RecursionError:
        raise FormatError("JSON nested too deeply", path=path) from None
    if isinstance(payload, list):
        entries, meta = payload, {}
    elif isinstance(payload, dict) and isinstance(payload.get("clusters"), list):
        entries = payload["clusters"]
        meta = {k: v for k, v in payload.items() if k != "clusters"}
    else:
        raise FormatError("expected a cluster array or an object with a 'clusters' array", path=path)
    clusters = []
    for entry in entries:
        try:
            stem, members = entry["stem"], entry["members"]
            if not isinstance(members, list):
                raise TypeError("members must be a list")
            clusters.append(Cluster(stem, members))
        except (TypeError, KeyError, ValueError) as exc:
            raise FormatError(f"bad cluster entry {entry!r} ({exc})", path=path) from None
    try:
        check_partition(clusters)
    except PartitionError as exc:
        raise FormatError(str(exc), path=path) from None
    return clusters, meta
