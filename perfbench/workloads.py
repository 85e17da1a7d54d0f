"""The workloads and the command sequence each one runs through the CLI.

Each workload is one caller issuing one command at a time, in the order
a user would, each command in a fresh interpreter: a closed loop with a
single client and no concurrency.  Every command's output is checked
(checks.py); a failed check fails that command's operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# documented default of `train --max-points`
MAX_POINTS = 20000
CORPUS_TOKENS = 500_000
REFERENCE_PASSES = 3      # reference_s() timings per iteration
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Train:
    """One `train` command; None leaves an option at its CLI default."""

    backend: str
    threshold: float | None = None
    max_iter: int | None = None

    def args(self) -> list[str]:
        args = ["--backend", self.backend]
        if self.threshold is not None:
            args += ["--threshold", repr(self.threshold)]
        if self.max_iter is not None:
            args += ["--max-iter", str(self.max_iter)]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    # distinct words to generate
    size: int
    trains: tuple[Train, ...]
    # backend whose stem table `stem` queries
    query_backend: str
    # the corpus workload runs `preprocess`; the others get a ready lexicon
    preprocess: bool = False


# Message passing stops when the exemplar set has been stable for a while,
# which takes anywhere from 35 to 115 iterations depending on the lexicon.
# ap-dense caps it so that its work depends on n alone and not on the seed;
# every capped run on 1.2 k words still elects its exemplars.
AP_ITERATIONS = 30

WORKLOADS = {
    w.name: w
    for w in (
        # the paper's default path: cleaning and lookup do most of the work,
        # since t=0.06 sweeps the pool in a few big clusters
        Workload("corpus", 45_000, (Train("greedy"),), "greedy", preprocess=True),
        # each seed rescans posting lists full of assigned words, so greedy
        # candidate scoring dominates
        Workload("greedy-strict", 16_000, (Train("greedy", threshold=0.6),), "greedy"),
        # dense matrix build and message passing do the work; the greedy run
        # is the baseline on the same lexicon
        Workload("ap-dense", 1_200, (Train("greedy"),
                                     Train("ap-coeff", max_iter=AP_ITERATIONS),
                                     Train("ap-median", max_iter=AP_ITERATIONS)), "ap-coeff"),
    )
}


def workload_inputs(workload: Workload, seed: int) -> dict[str, bytes]:
    if workload.preprocess:
        files = inputs.corpus_files(seed, workload.size, CORPUS_TOKENS)
    else:
        files = inputs.lexicon_files(seed, workload.size)
    # the refused AP run: one word over the default guard
    files["oversized.txt"] = inputs.lexicon_files(seed + 1, MAX_POINTS + 1)["lexicon.txt"]
    files["tiny.txt"] = inputs.tiny_lexicon()
    return files


@dataclass
class Op:
    """One operation: what ran, how long, how big, and what went wrong."""

    kind: str
    label: str
    wall_s: float = 0.0
    rss_kib: int = 0
    code: int = 0
    stdout: bytes = b""
    stderr: bytes = b""
    failures: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    for name in THREAD_VARS:
        env[name] = threads
    # fixed hash layout: one source of run-to-run timing noise fewer
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs stemcluster commands in fresh interpreters, one at a time,
    through spawner.py so that each reports its own peak RSS."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.env = child_env()
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def run(self, kind: str, label: str, args: list[str], stdin: Path | None = None) -> Op:
        out_path, err_path = self.dir / "stdout", self.dir / "stderr"
        request = {"argv": [sys.executable, "-m", "stemcluster", *args], "env": self.env,
                   "stdin": str(stdin or os.devnull), "stdout": str(out_path),
                   "stderr": str(err_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        result = json.loads(self.spawner.stdout.readline())
        return Op(kind, label, result["wall_s"], result["rss_kib"], result["code"],
                  out_path.read_bytes(), err_path.read_bytes())


def reference_s() -> float:
    """Seconds taken by a fixed task: a Python integer loop, then streaming
    arithmetic over two preallocated 8 MB float64 matrices.  It never
    changes, so its time moves only with the speed of the machine."""
    a = np.ones((1000, 1000))
    b = a.copy()
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    for _ in range(20):
        np.multiply(a, 0.5, out=b)
        np.add(b, 1.0, out=a)
    return time.perf_counter() - start


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Session:
    """One workload's inputs, its command sequence and the output checks."""

    def __init__(self, workload: Workload, seed: int, directory: Path, runner: Runner):
        self.w = workload
        self.seed = seed
        self.dir = directory
        self.runner = runner
        self.inputs = inputs.write_inputs(directory / "in", workload_inputs(workload, seed))
        self.out = directory / "out"
        self.out.mkdir()
        self.gold = checks.read_gold(self.inp("gold.tsv"))
        self.queries = checks.read_words(self.inp("queries.txt"))
        self.first_digests: dict[str, str] = {}

    def inp(self, name: str) -> Path:
        return self.inputs.path(name)

    def lexicon_path(self, out: Path) -> Path:
        return out / "lexicon.txt" if self.w.preprocess else self.inp("lexicon.txt")

    @staticmethod
    def artifacts(out: Path, backend: str) -> tuple[Path, Path]:
        return out / f"{backend}.tsv", out / f"{backend}.json"

    def train_args(self, train: Train, lexicon: Path, out: Path) -> list[str]:
        table, report = self.artifacts(out, train.backend)
        return ["train", str(lexicon), *train.args(),
                "--stem-table", str(table), "--report", str(report)]

    def probe_setup(self) -> Op:
        """A fresh no-op CLI process: the start-up every command pays."""
        op = self.runner.run("setup", "--help", ["--help"])
        if op.code != 0 or b"usage:" not in op.stdout:
            op.failures.append(f"--help exited {op.code}")
        return op

    def iteration(self, out: Path, baseline_kib: float) -> tuple[list[Op], dict[str, float]]:
        """The workload's command sequence once, every output checked.

        ``baseline_kib`` is the peak RSS of a no-op CLI process; the refused
        run may not rise above it by anything of order n^2.
        """
        run = self.runner.run
        ops: list[Op] = []
        accuracy: dict[str, float] = {}
        lexicon_path = self.lexicon_path(out)
        if self.w.preprocess:
            op = run("preprocess", "preprocess", ["preprocess", str(self.inp("corpus.txt")),
                                                  "-o", str(lexicon_path), "--stats"])
            if self.exited(op, 0):
                op.failures += checks.guarded(checks.check_lexicon, lexicon_path, op.stdout)
            ops.append(op)
        lexicon = checks.read_words(lexicon_path) if lexicon_path.exists() else []
        gold = self.inp("gold.tsv")
        for train in self.w.trains:
            op = run("train", f"train {train.backend}", self.train_args(train, lexicon_path, out))
            if self.exited(op, 0):
                op.failures += checks.guarded(checks.check_training, lexicon,
                                              *self.artifacts(out, train.backend))
            ops.append(op)
        for train in self.w.trains:
            report = self.artifacts(out, train.backend)[1]
            op = run("evaluate", f"evaluate {train.backend}",
                     ["evaluate", str(report), str(gold)])
            if self.exited(op, 0):
                op.failures += checks.guarded(checks.check_evaluation, op.stdout, report,
                                              self.gold, accuracy, train.backend)
            ops.append(op)
        table = self.artifacts(out, self.w.query_backend)[0]
        op = run("stem", "stem", ["stem", str(table)], stdin=self.inp("queries.txt"))
        if self.exited(op, 0):
            op.failures += checks.guarded(checks.check_stems, op.stdout, self.queries, table)
        ops.append(op)
        oversized = self.inp("oversized.txt")
        refused = [out / "refused.tsv", out / "refused.json"]
        op = run("refuse", "refuse", ["train", str(oversized), "--backend", "ap-coeff",
                                      "--stem-table", str(refused[0]), "--report", str(refused[1])])
        op.failures += checks.check_refusal(op.code, op.stderr, (op.rss_kib - baseline_kib) * 1024,
                                            len(checks.read_words(oversized)), refused)
        ops.append(op)
        self.check_digests(ops, out)
        return ops, accuracy

    @staticmethod
    def exited(op: Op, code: int) -> bool:
        if op.code != code:
            op.failures.append(f"exit {op.code}, expected {code}: "
                               f"{op.stderr.decode('utf-8', 'replace').strip()[-300:]}")
        return op.code == code

    def check_digests(self, ops: list[Op], out: Path) -> None:
        """Artifacts and printed results must repeat byte for byte."""
        current = {path.name: digest(path.read_bytes()) for path in out.iterdir()}
        for op in ops:
            if op.kind in ("evaluate", "stem"):
                current[op.label] = digest(op.stdout)
        if not self.first_digests:
            self.first_digests = current
        elif current != self.first_digests:
            changed = sorted(k for k in current.keys() | self.first_digests.keys()
                             if current.get(k) != self.first_digests.get(k))
            ops[-1].failures.append(f"artifacts changed between iterations: {changed}")
