"""Alternating pairs of benchmark runs: a parent revision against a change.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload ap-dense \\
        --pairs 10 --seconds 40 --seed-base 3001 [--out result.json]

PARENT and CHANGE are git revisions.  Each is exported with ``git
archive`` to a temporary folder outside the repository, and CHANGE's
``perfbench/`` is copied over the parent's, so one benchmark runs
against each side's ``src``.  Every run gets ``PYTHONHASHSEED=0``,
``PYTHONUNBUFFERED=1`` and ``PYTHONDONTWRITEBYTECODE=1``.  One discarded
warm-up runs per side, at seed ``seed-base - 1``; pair i then runs seed
``seed-base + i`` on both sides, the parent first in even pairs and the
change first in odd ones.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles (``statistics.quantiles(n=4, method='inclusive')``),
the pairs the change won and lost (ties count for neither), the median
paired difference and a verdict:

- ``better``: the change won at least nine tenths of the pairs, and the
  medians differ, its way, by more than the parent's quartile spread;
- ``worse``: the change's median is worse by more than the metric's
  bound, and either the parent's quartile spread is within that bound
  or the change lost at least nine tenths of the pairs and its median is
  worse by more than that spread;
- ``within bound``: no ``worse``, and either the parent's quartile
  spread is within the bound or every run of the change is better than
  every run of the parent;
- ``unresolved``: otherwise, the parent's spread being wider than the
  bound.

Bounds are in the metric's own unit.  ``--out`` writes the summary and
every raw result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = {"PYTHONHASHSEED": "0", "PYTHONUNBUFFERED": "1", "PYTHONDONTWRITEBYTECODE": "1"}


def summary(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The statistics of one metric over pairs: ``parent[i]`` and
    ``change[i]`` ran as pair i; ``better`` is "lower" or "higher"."""
    sign = -1.0 if better == "lower" else 1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    parent_q = statistics.quantiles(parent, n=4, method="inclusive")
    change_q = statistics.quantiles(change, n=4, method="inclusive")
    spread = parent_q[2] - parent_q[0]
    gain = sign * (change_q[1] - parent_q[1])
    won = sum(g > 0 for g in gains)
    lost = sum(g < 0 for g in gains)
    if won >= 0.9 * len(gains) and gain > spread:
        verdict = "better"
    elif -gain > bound and (spread <= bound or (lost >= 0.9 * len(gains) and -gain > spread)):
        verdict = "worse"
    elif spread <= bound or min(sign * c for c in change) > max(sign * p for p in parent):
        verdict = "within bound"
    else:
        verdict = "unresolved"
    return {
        "parent_quartiles": parent_q,
        "change_quartiles": change_q,
        "parent_spread": spread,
        "won": won,
        "lost": lost,
        "median_paired_difference": statistics.median(c - p for p, c in zip(parent, change)),
        "bound": bound,
        "verdict": verdict,
    }


def export(revision: str, target: Path) -> str:
    """Writes the revision's files under ``target``; returns its commit id."""
    target.mkdir(parents=True)
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run([*git, "rev-parse", "--verify", f"{revision}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = target.parent / f"{target.name}.tar"
    subprocess.run([*git, "archive", "-o", str(archive), commit], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()
    return commit


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run on ``tree``: its last stdout line, parsed."""
    env = {**os.environ, **PINNED}
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, encoding="utf-8",
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: benchmark printed nothing on {tree.name}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = contract["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        trees = {side: Path(scratch) / side for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        shutil.rmtree(trees["parent"] / "perfbench", ignore_errors=True)
        shutil.copytree(trees["change"] / "perfbench", trees["parent"] / "perfbench")
        for side in trees:
            run(trees[side], args.workload, args.seed_base - 1, args.seconds)
        results: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                results[side].append(run(trees[side], args.workload, args.seed_base + i,
                                         args.seconds))
            print(f"pair {i + 1}/{args.pairs} seed={args.seed_base + i} first={order[0]}",
                  file=sys.stderr)

    failed = {side: sum(r["failed"] for r in runs) for side, runs in results.items()}
    stats = {}
    for metric in metrics:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        stats[name] = summary(parent, change, metric["better"], metric["bound"])
        s = stats[name]
        print(f"{args.workload} {name} ({metric['unit']}, {metric['better']} is better): "
              f"parent {s['parent_quartiles'][1]:.4g} [{s['parent_quartiles'][0]:.4g}, "
              f"{s['parent_quartiles'][2]:.4g}] change {s['change_quartiles'][1]:.4g} "
              f"[{s['change_quartiles'][0]:.4g}, {s['change_quartiles'][2]:.4g}] "
              f"won {s['won']}/{args.pairs} lost {s['lost']} "
              f"median diff {s['median_paired_difference']:+.4g} -> {s['verdict']}")
    print(f"{args.workload} failed: parent {failed['parent']} change {failed['change']}")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload,
            "commits": commits,
            "revisions": {"parent": args.parent, "change": args.change},
            "pairs": args.pairs,
            "seconds": args.seconds,
            "seeds": [args.seed_base + i for i in range(args.pairs)],
            "warm_up_seed": args.seed_base - 1,
            "environment": PINNED,
            "machine": f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()}",
            "failed": failed,
            "metrics": stats,
            "runs": results,
        }, indent=1) + "\n", encoding="utf-8")
    return 0 if not any(failed.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
