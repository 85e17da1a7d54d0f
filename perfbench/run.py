"""stemcluster benchmark: the documented CLI end to end, plus a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Inputs come from ``--seed`` alone (inputs.py); the workloads and their
command sequences are in workloads.py.  Wall time is taken here around
each child process, peak RSS from ``os.wait4``.

``--trace 0`` repeats the workload's command sequence for ``--seconds``
(an iteration starts only if the previous one says it will end in time;
at least one always runs) and reports each end-to-end metric as the
median over iterations.  ``--trace 1`` runs the sequence once through
the CLI and once in-process with spans (traced.py) and reports the
per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Above it: the sha256 of every input and
a human-readable row that adds the metrics only some workloads have.
Any failed operation makes the run exit 1; ``--workload all`` prints one
row per workload.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from workloads import (REFERENCE_PASSES, ROOT, SRC, THREAD_VARS, WORKLOADS,  # noqa: E402
                       Op, Runner, Session, Train, child_env, reference_s)

WORK = ROOT / ".perfbench_work"
AP_BACKENDS = ("ap-coeff", "ap-median")

# name: (unit, reported on every workload).  Only the common ones go into
# the JSON result, which has to carry the same metrics for every workload.
# The *_ref metrics are the *_s ones over the median time of a fixed
# reference task run between iterations (workloads.reference_s): on a
# shared machine the same command's time drifts by a quarter within
# minutes, and the ratio cancels most of that drift.
END_TO_END = {
    "setup_s": ("s", True),
    "pipeline_ref": ("ref", True),
    "train_peak_rss_mb": ("MiB", True),
    "train_ref": ("ref", False),
    "pipeline_s": ("s", False),
    "train_s": ("s", False),
    "reference_s": ("s", False),
    "preprocess_s": ("s", False),
    "stem_words_per_s": ("words/s", False),
    "refuse_s": ("s", False),
    "ap_peak_n2": ("n2x8B", False),
    "accuracy.greedy": ("ratio", False),
    "accuracy.ap-coeff": ("ratio", False),
    "accuracy.ap-median": ("ratio", False),
    "failed_ratio": ("ratio", False),
}


def ap_calibration(session: Session) -> dict[str, int]:
    """Peak RSS (KiB) of each AP train on a 2-word lexicon: the part of AP
    memory that does not grow with n."""
    out = session.dir / "calibration"
    out.mkdir()
    return {backend: session.runner.run("calibrate", backend, session.train_args(
                Train(backend), session.inp("tiny.txt"), out)).rss_kib
            for backend in AP_BACKENDS}


def iteration_metrics(ops: list[Op], queries: int, calibration: dict[str, int],
                      words: int) -> dict[str, float]:
    """One iteration's end-to-end figures; ``words`` is the AP lexicon size."""
    trains = [op for op in ops if op.kind == "train" and op.code == 0]
    by_kind = {op.kind: op for op in ops}
    m = {
        "pipeline_s": sum(op.wall_s for op in ops),
        "train_s": sum(op.wall_s for op in trains),
        "stem_words_per_s": queries / by_kind["stem"].wall_s,
        "train_peak_rss_mb": max((op.rss_kib for op in trains), default=0) / 1024,
        "refuse_s": by_kind["refuse"].wall_s,
    }
    if "preprocess" in by_kind:
        m["preprocess_s"] = by_kind["preprocess"].wall_s
    peaks = [(op.rss_kib - calibration[backend]) * 1024 / (words * words * 8)
             for op in trains for backend in calibration if op.label == f"train {backend}"]
    if peaks:
        m["ap_peak_n2"] = max(peaks)
    return m


def measure(session: Session, seconds: float) -> tuple[dict[str, float], list[Op]]:
    """Repeat the sequence for ``seconds``; medians of per-iteration metrics."""
    calibration, words = {}, 0
    if any(t.backend in AP_BACKENDS for t in session.w.trains):
        calibration = ap_calibration(session)
        words = len(checks.read_words(session.lexicon_path(session.out)))
    ops: list[Op] = []
    probes: dict[str, list[float]] = {"setup": [], "reference": []}
    iterations: list[dict[str, float]] = []
    start = time.perf_counter()
    last = 0.0
    while not iterations or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        probes["reference"] += [reference_s() for _ in range(REFERENCE_PASSES)]
        setup = session.probe_setup()
        probes["setup"].append(setup.wall_s)
        commands, accuracy = session.iteration(session.out, setup.rss_kib)
        ops += [setup] + commands
        m = iteration_metrics(commands, len(session.queries), calibration, words)
        m.update({f"accuracy.{backend}": value for backend, value in accuracy.items()})
        iterations.append(m)
        last = time.perf_counter() - began
    metrics = {name: statistics.median(m[name] for m in iterations if name in m)
               for name in set().union(*iterations)}
    metrics["setup_s"] = statistics.median(probes["setup"])
    metrics["reference_s"] = statistics.median(probes["reference"])
    for name in ("pipeline", "train"):
        metrics[f"{name}_ref"] = metrics[f"{name}_s"] / metrics["reference_s"]
    metrics["failed_ratio"] = sum(1 for op in ops if op.failures) / len(ops)
    print(f"iterations={len(iterations)} measured_s={time.perf_counter() - start:.2f}")
    return metrics, ops


def format_row(name: str, metrics: dict[str, float]) -> str:
    cells = [f"{key}={metrics[key]:.6g} {unit}" if key in metrics else f"{key}=n/a"
             for key, (unit, _common) in END_TO_END.items()]
    return f"row {name}: " + "  ".join(cells)


def result_line(ops: list[Op], metrics: dict[str, tuple[float, str]]) -> str:
    failed = sum(1 for op in ops if op.failures)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def fingerprint() -> str:
    env = child_env()
    threads = ",".join(f"{name}={env[name]}" for name in THREAD_VARS)
    return (f"machine nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={importlib.metadata.version('numpy')} {threads}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, directory: Path) -> str | None:
    """Run one workload; returns its row, or None when an operation failed."""
    # the runner starts before the inputs exist: see spawner.py
    with Runner(directory) as runner:
        session = Session(WORKLOADS[name], seed, directory, runner)
        print(fingerprint())
        print(f"inputs {name} seed={seed} " + " ".join(
            f"{file}:sha256={sha}" for file, sha in session.inputs.digests.items()))
        if trace:
            import traced
            metrics, ops = traced.run(session, ROOT / ".perfbench_out")
            row = f"traced {name}"
        else:
            e2e, ops = measure(session, seconds)
            row = format_row(name, e2e)
            print(row)
            metrics = {key: (e2e[key], unit) for key, (unit, common) in END_TO_END.items() if common}
    for op in ops:
        for failure in op.failures:
            print(f"FAILED {name} {op.label}: {failure}", file=sys.stderr)
    print(result_line(ops, metrics))
    return None if any(op.failures for op in ops) else row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stemcluster" / "__main__.py").is_file():
        print(f"error: no stemcluster sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    directory = WORK / str(os.getpid())
    rows = []
    try:
        for name in names:
            shutil.rmtree(directory, ignore_errors=True)
            directory.mkdir(parents=True)
            rows.append(run_workload(name, args.seed, args.seconds, bool(args.trace), directory))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    if len(rows) > 1:
        print("\n".join(row or "FAILED" for row in rows))
    return 0 if all(rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
