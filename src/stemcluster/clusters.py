"""Cluster container shared by both backends, plus the JSON report files."""

from __future__ import annotations

from collections import namedtuple

from .errors import FormatError
from .preprocess import lexicon_sort_key, read_text, write_lines


def select_stem(members) -> str:
    """The smallest member under (code-point length, lexicographic) order."""
    members = list(members)
    if not members:
        raise ValueError("cannot select a stem from an empty member list")
    return min(members, key=lexicon_sort_key)


class Cluster(namedtuple("Cluster", "stem members")):
    __slots__ = ()

    def __new__(cls, stem: str, members: tuple[str, ...]):
        self = super().__new__(cls, stem, tuple(members))
        if not self.members:
            raise ValueError("a cluster needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError("cluster members must be pairwise distinct")
        if self.stem not in self.members:
            raise ValueError(f"stem {self.stem!r} is not a member of its cluster")
        return self


def write_cluster_report(
    path,
    clusters,
    *,
    exemplars=None,
    mode: str | None = None,
    converged: bool | None = None,
    iterations: int | None = None,
) -> None:
    """Write the cluster report JSON.

    Plain runs produce a bare array of {stem, members}.  When the
    exemplar-based backend supplies its exemplars (and with them its
    mode, converged and iterations), each entry gains its exemplar and the
    array is wrapped in an object carrying {mode, converged, iterations}.
    """
    import json
    entries = [{"stem": c.stem, "members": list(c.members)} for c in clusters]
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
    write_lines(path, [json.dumps(payload, ensure_ascii=False, indent=2)])


def read_cluster_report(path) -> tuple[list[Cluster], dict]:
    """Load a cluster report; returns (clusters, run-level metadata).

    The clusters must partition their words: string stems and members,
    and no word in more than one cluster.
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
    seen: set[str] = set()
    for entry in entries:
        try:
            stem, members = entry["stem"], entry["members"]
            if not isinstance(stem, str) or not isinstance(members, list):
                raise TypeError("expected a string stem and a member list")
            if not all(isinstance(member, str) for member in members):
                raise TypeError("members must be strings")
            clusters.append(Cluster(stem=stem, members=tuple(members)))
        except (TypeError, KeyError, ValueError) as exc:
            raise FormatError(f"bad cluster entry {entry!r} ({exc})", path=path) from None
        repeated = seen.intersection(members)
        if repeated:
            raise FormatError(
                f"word {min(repeated)!r} appears in more than one cluster", path=path
            )
        seen.update(members)
    return clusters, meta
