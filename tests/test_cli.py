import codecs
import contextlib
import io
import itertools
import json
import os
import select
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stemcluster.cli import main
from stemcluster.greedy import read_stem_table, stem_word
from stemcluster.clusters import read_cluster_report
from stemcluster.errors import ConfigError
from stemcluster.evaluation import report_stats
from stemcluster.preprocess import write_lexicon

from helpers import src_env, synthetic_lexicon


def run_cli(*argv):
    return main(list(argv))


def _stdin(text: str, sizes=None) -> io.TextIOWrapper:
    """A process-like stdin over ``text``; with ``sizes``, each raw read
    returns the next of those byte counts, cycling."""
    data = text.encode("utf-8")
    buffer = io.BytesIO(data) if sizes is None else io.BufferedReader(_Trickle(data, sizes))
    return io.TextIOWrapper(buffer, encoding="utf-8")


class _Trickle(io.RawIOBase):
    def __init__(self, data: bytes, sizes):
        self._data, self._sizes, self._pos = data, itertools.cycle(sizes), 0

    def readable(self):
        return True

    def readinto(self, buffer):
        n = min(len(buffer), next(self._sizes), len(self._data) - self._pos)
        buffer[:n] = self._data[self._pos : self._pos + n]
        self._pos += n
        return n


@pytest.fixture
def trained(tmp_path, demo_corpus, capsys):
    lexicon = tmp_path / "lexicon.txt"
    table = tmp_path / "stems.tsv"
    report = tmp_path / "report.json"
    assert run_cli("preprocess", str(demo_corpus), "-o", str(lexicon), "--stats") == 0
    assert run_cli(
        "train", str(lexicon), "--stem-table", str(table), "--report", str(report)
    ) == 0
    capsys.readouterr()  # drop pipeline chatter so tests see only their own output
    return {"lexicon": lexicon, "table": table, "report": report}


class TestPreprocess:
    def test_demo_corpus_matches_committed_lexicon(
        self, tmp_path, demo_corpus, demo_expected_dir, capsys
    ):
        out = tmp_path / "lexicon.txt"
        assert run_cli("preprocess", str(demo_corpus), "-o", str(out), "--stats") == 0
        assert capsys.readouterr().out == "total=60 unique=48\n"
        assert out.read_bytes() == (demo_expected_dir / "lexicon.txt").read_bytes()

    def test_byte_identical_reruns(self, tmp_path, demo_corpus):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        run_cli("preprocess", str(demo_corpus), "-o", str(first))
        run_cli("preprocess", str(demo_corpus), "-o", str(second))
        assert first.read_bytes() == second.read_bytes()

    # options may sit between the inputs too
    @pytest.mark.parametrize(
        "order",
        [
            ["one", "two", "-o", "out"],
            ["one", "--stats", "two", "-o", "out"],
            ["one", "-o", "out", "two", "--stats"],
            ["--stats", "one", "-o", "out", "two"],
        ],
    )
    def test_multiple_inputs_concatenate(self, tmp_path, capsys, order):
        (tmp_path / "one").write_text("কখ গঘ\n", encoding="utf-8")
        (tmp_path / "two").write_text("কখ ঙচছ\n", encoding="utf-8")
        argv = [str(tmp_path / item) if item in ("one", "two", "out") else item for item in order]
        assert run_cli("preprocess", *argv) == 0
        assert capsys.readouterr().out == "total=4 unique=3\n"
        header = "#stats total=4 unique=3\n" if "--stats" in order else ""
        assert (tmp_path / "out").read_text(encoding="utf-8") == header + "কখ\nগঘ\nঙচছ\n"

    def test_noise_only_corpus_warns(self, tmp_path, capsys):
        source = tmp_path / "noise.txt"
        source.write_text("abc 123 :-)\n", encoding="utf-8")
        out = tmp_path / "lex.txt"
        assert run_cli("preprocess", str(source), "-o", str(out)) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert out.read_text(encoding="utf-8") == ""

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "lex.txt"
        code = run_cli("preprocess", str(tmp_path / "nope.txt"), "-o", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "nope.txt" in err

    def test_invalid_utf8_is_rejected(self, tmp_path, capsys):
        source = tmp_path / "junk.txt"
        source.write_bytes(b"\xff\xfe\x00bad")
        code = run_cli("preprocess", str(source), "-o", str(tmp_path / "lex.txt"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "UTF-8" in err


class TestTrain:
    def test_greedy_report_matches_committed(self, trained, demo_expected_dir):
        committed = (demo_expected_dir / "greedy_report.json").read_bytes()
        assert trained["report"].read_bytes() == committed

    def test_greedy_prints_cluster_count(self, tmp_path, demo_expected_dir, capsys):
        table = tmp_path / "t.tsv"
        report = tmp_path / "r.json"
        run_cli(
            "train",
            str(demo_expected_dir / "lexicon.txt"),
            "--stem-table", str(table),
            "--report", str(report),
        )
        assert capsys.readouterr().out == "clusters=11 reduction_ratio=0.2292\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("artifact", ["--stem-table", "--report"])
    def test_full_disk_is_one_error_line(self, tmp_path, demo_expected_dir, capsys, artifact):
        # artifacts are written as they are formatted, so the failing write
        # comes midway; it must still end in one line
        paths = {"--stem-table": str(tmp_path / "t.tsv"), "--report": str(tmp_path / "r.json")}
        paths[artifact] = "/dev/full"
        lexicon = str(demo_expected_dir / "lexicon.txt")
        assert run_cli("train", lexicon, *itertools.chain(*paths.items())) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    def test_ap_thread_that_cannot_start_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # message passing on two workers, the second of which cannot start
        from stemcluster import ap
        n = 40
        lexicon = tmp_path / "lexicon.txt"
        write_lexicon(synthetic_lexicon(n, seed=3), lexicon)
        monkeypatch.setattr(ap, "_BLOCK_BYTES", 4 * 8 * n)
        monkeypatch.setattr(ap, "_cpu_count", lambda: 2)

        def start(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        code = run_cli("train", str(lexicon), "--backend", "ap-coeff",
                       "--stem-table", str(tmp_path / "t.tsv"), "--report", str(tmp_path / "r.json"))
        assert code == 1
        assert capsys.readouterr() == ("", (
            f"error: out of memory: affinity propagation over {n} words would peak near "
            "0.0 GiB (3.5 x n^2 x 8 B)\n"
        ))
        assert sorted(os.listdir(tmp_path)) == ["lexicon.txt"]

    def test_a_stem_table_that_cannot_be_built_leaves_no_artifact(
        self, tmp_path, demo_expected_dir, capsys, monkeypatch
    ):
        from stemcluster import greedy

        def refuse(clusters, order, threshold):
            raise ConfigError("refused")

        monkeypatch.setattr(greedy, "stem_table_from_clusters", refuse)
        out = tmp_path / "out"
        out.mkdir()
        code = run_cli("train", str(demo_expected_dir / "lexicon.txt"),
                       "--stem-table", str(out / "t.tsv"), "--report", str(out / "r.json"))
        assert code == 2
        assert capsys.readouterr().err == "error: refused\n"
        assert os.listdir(out) == []

    def test_stem_table_round_trips(self, trained):
        table = read_stem_table(trained["table"])
        assert len(table.entries) == 48
        assert len(set(table.entries.values())) == 11
        assert table.threshold == 0.06

    def test_byte_identical_reruns(self, tmp_path, demo_expected_dir):
        lexicon = demo_expected_dir / "lexicon.txt"
        outputs = []
        for tag in ("x", "y"):
            table = tmp_path / f"{tag}.tsv"
            report = tmp_path / f"{tag}.json"
            run_cli("train", str(lexicon), "--stem-table", str(table), "--report", str(report))
            outputs.append((table.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_two_related_words_one_cluster(self, tmp_path, capsys):
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("বাংলা\nবাংলাদেশ\n", encoding="utf-8")
        report = tmp_path / "r.json"
        run_cli(
            "train", str(lexicon),
            "--stem-table", str(tmp_path / "t.tsv"),
            "--report", str(report),
        )
        clusters, _ = read_cluster_report(report)
        assert len(clusters) == 1
        assert clusters[0].stem == "বাংলা"

    def test_lexicon_with_byte_order_mark_trains_clean_stems(self, tmp_path, capsys):
        lexicon = tmp_path / "lex.txt"
        lexicon.write_bytes(codecs.BOM_UTF8 + "কাজ\nকাজের\n".encode("utf-8"))
        table = tmp_path / "t.tsv"
        assert run_cli(
            "train", str(lexicon), "--stem-table", str(table), "--report", str(tmp_path / "r.json")
        ) == 0
        capsys.readouterr()
        assert run_cli("stem", str(table), "কাজের") == 0
        assert capsys.readouterr().out == "কাজ\n"

    def test_ap_median_two_unrelated_words_two_clusters(self, tmp_path):
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("কখ\nগঘ\n", encoding="utf-8")
        report = tmp_path / "r.json"
        code = run_cli(
            "train", str(lexicon),
            "--backend", "ap-median",
            "--preference=-1",
            "--stem-table", str(tmp_path / "t.tsv"),
            "--report", str(report),
        )
        assert code == 0
        clusters, meta = read_cluster_report(report)
        assert len(clusters) == 2
        assert meta["mode"] == "median"
        assert meta["converged"] is True
        assert isinstance(meta["iterations"], int)
        for entry_cluster in clusters:
            assert len(entry_cluster.members) == 1
        raw = json.loads(report.read_text(encoding="utf-8"))
        for entry in raw["clusters"]:
            assert entry["exemplar"] in entry["members"]

    def test_ap_coeff_on_demo_is_a_partition(self, tmp_path, demo_expected_dir):
        report = tmp_path / "r.json"
        code = run_cli(
            "train", str(demo_expected_dir / "lexicon.txt"),
            "--backend", "ap-coeff",
            "--stem-table", str(tmp_path / "t.tsv"),
            "--report", str(report),
        )
        assert code == 0
        table = read_stem_table(tmp_path / "t.tsv")
        assert table.order == "2+3"
        assert table.threshold is None
        clusters, meta = read_cluster_report(report)
        members = sorted(w for c in clusters for w in c.members)
        lexicon_words = [
            line for line in (demo_expected_dir / "lexicon.txt").read_text("utf-8").splitlines()
            if line and not line.startswith("#")
        ]
        assert members == sorted(lexicon_words)
        assert meta["mode"] == "coefficient"

    @pytest.mark.parametrize("backend, peak_n2", [("ap-coeff", 3.5), ("ap-median", 2.5)])
    def test_ap_capacity_error_is_surfaced(
        self, tmp_path, demo_expected_dir, capsys, backend, peak_n2
    ):
        code = run_cli(
            "train", str(demo_expected_dir / "lexicon.txt"),
            "--backend", backend,
            "--max-points", "10",
            "--stem-table", str(tmp_path / "t.tsv"),
            "--report", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: lexicon has 48 words but max_points=10; affinity propagation over 48 words "
            f"would peak near 0.0 GiB ({peak_n2} x n^2 x 8 B)\n"
        )

    @pytest.mark.parametrize("backend", ["ap-coeff", "ap-median"])
    def test_ap_demo_artifacts_match_committed(
        self, tmp_path, demo_expected_dir, demo_out_dir, backend
    ):
        table = tmp_path / "t.tsv"
        report = tmp_path / "r.json"
        code = run_cli(
            "train", str(demo_expected_dir / "lexicon.txt"),
            "--backend", backend,
            "--stem-table", str(table),
            "--report", str(report),
        )
        assert code == 0
        assert table.read_bytes() == (demo_out_dir / f"{backend}-stems.tsv").read_bytes()
        assert report.read_bytes() == (demo_out_dir / f"{backend}-report.json").read_bytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_preference_is_usage_error(
        self, tmp_path, demo_expected_dir, capsys, value
    ):
        code = run_cli(
            "train", str(demo_expected_dir / "lexicon.txt"),
            "--backend", "ap-median",
            f"--preference={value}",
            "--stem-table", str(tmp_path / "t.tsv"),
            "--report", str(tmp_path / "r.json"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert value in err
        assert not (tmp_path / "r.json").exists()

    def test_overflowing_preference_is_one_usage_error_line(
        self, tmp_path, demo_expected_dir, capsys
    ):
        code = run_cli(
            "train", str(demo_expected_dir / "lexicon.txt"),
            "--backend", "ap-coeff",
            "--preference=-1e308",
            "--stem-table", str(tmp_path / "t.tsv"),
            "--report", str(tmp_path / "r.json"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: similarities too large for message passing")
        assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    def test_huge_preference_makes_every_word_its_own_cluster(
        self, tmp_path, demo_expected_dir, capsys
    ):
        code = run_cli(
            "train", str(demo_expected_dir / "lexicon.txt"),
            "--backend", "ap-coeff",
            "--preference", "1e307",
            "--stem-table", str(tmp_path / "t.tsv"),
            "--report", str(tmp_path / "r.json"),
        )
        assert code == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.endswith("clusters=48 reduction_ratio=1.0000\n")

    def test_stats_unique_mismatch_is_one_error_line(self, tmp_path, capsys):
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("#stats total=10 unique=1\nকখ\nগঘ\nকখগ\n", encoding="utf-8")
        code = run_cli(
            "train", str(lexicon),
            "--stem-table", str(tmp_path / "t.tsv"),
            "--report", str(tmp_path / "r.json"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("error:") == 1
        assert err.count("\n") == 1
        assert ":1:" in err
        assert not (tmp_path / "r.json").exists()

    def test_unparsable_preference_is_usage_error(self, tmp_path, demo_expected_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "train", str(demo_expected_dir / "lexicon.txt"),
                "--backend", "ap-median",
                "--preference", "abc",
                "--stem-table", str(tmp_path / "t.tsv"),
                "--report", str(tmp_path / "r.json"),
            )
        assert exc.value.code == 2
        assert "'abc'" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_iteration_cap_warns_not_converged(self, tmp_path, demo_expected_dir, capsys):
        code = run_cli(
            "train", str(demo_expected_dir / "lexicon.txt"),
            "--backend", "ap-coeff",
            "--max-iter", "5",
            "--stem-table", str(tmp_path / "t.tsv"),
            "--report", str(tmp_path / "r.json"),
        )
        assert code == 0
        out, err = capsys.readouterr()
        assert err == "warning: not converged after 5 iterations\n"
        assert "converged=false iterations=5" in out
        _clusters, meta = read_cluster_report(tmp_path / "r.json")
        assert meta == {"mode": "coefficient", "converged": False, "iterations": 5}

    def test_bad_threshold_is_usage_error(self, tmp_path, demo_expected_dir, capsys):
        code = run_cli(
            "train", str(demo_expected_dir / "lexicon.txt"),
            "--threshold", "1.5",
            "--stem-table", str(tmp_path / "t.tsv"),
            "--report", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestUsageErrors:
    """argparse's own refusals follow the one-``error:``-line contract too."""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["train"], id="missing-lexicon"),
            pytest.param(["train", "lexicon.txt", "--backend", "nope"], id="bad-backend"),
            pytest.param(["train", "lexicon.txt", "--threshold", "abc"], id="bad-threshold"),
            pytest.param(["stem", "stems.tsv", "--bogus"], id="unknown-flag"),
            pytest.param([], id="no-subcommand"),
        ],
    )
    def test_usage_error_is_one_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "usage:" not in err

    def test_module_usage_error_is_one_error_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stemcluster", "train"],
            capture_output=True, text=True, encoding="utf-8", env=src_env(),
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: the following arguments are required: LEXICON\n"


class TestStem:
    def test_crlf_table_is_one_error_line(self, tmp_path, capsys):
        table = tmp_path / "stems.tsv"
        table.write_bytes("#stemcluster v1 order=2 threshold=0.06\r\nকাজের\tকাজ\r\n".encode("utf-8"))
        assert run_cli("stem", str(table), "কাজের") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {table}:1: ")
        assert "CRLF line endings" in captured.err
        assert captured.err.count("\n") == 1

    def test_args_mode(self, trained, capsys):
        code = run_cli("stem", str(trained["table"]), "কাজের", "কখগঘ")
        assert code == 0
        assert capsys.readouterr().out == "কাজ\nকখগঘ\n"

    def test_stdin_mode(self, trained, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", _stdin("কাজের\nবইটি\n"))
        assert run_cli("stem", str(trained["table"])) == 0
        assert capsys.readouterr().out == "কাজ\nবই\n"
        # blank lines are skipped, surrounding whitespace is stripped, and a
        # last line without a newline still gets one answer line
        monkeypatch.setattr(sys, "stdin", _stdin("\n  কাজের \t\n\t\n\n বইটি"))
        assert run_cli("stem", str(trained["table"])) == 0
        assert capsys.readouterr().out == "কাজ\nবই\n"
        monkeypatch.setattr(sys, "stdin", _stdin(" কখগঘ\n\nকাজের\r\nকখগঘ \n"))
        assert run_cli("stem", str(trained["table"]), "--mark-oov") == 0
        assert capsys.readouterr().out == "কখগঘ\t[OOV]\nকাজ\nকখগঘ\t[OOV]\n"

    def test_empty_stdin(self, trained, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", _stdin(""))
        assert run_cli("stem", str(trained["table"])) == 0
        assert capsys.readouterr().out == ""

    @settings(max_examples=200)
    @given(
        lines=st.lists(st.tuples(
            st.sampled_from(["", " ", "\t", " \t "]),
            st.sampled_from(["", "কাজের", "বইটি", "কাজ", "কখগঘ", "কাজের,", "«বইটি»", "ab", "কাজ, বই"]),
            st.sampled_from(["", " ", "\t"]),
            st.sampled_from(["\n", "\r\n"]),
        ), max_size=12),
        last=st.sampled_from(["", "কাজের", " বইটি\t", "কখগঘ"]),
        sizes=st.lists(st.integers(1, 7), min_size=1, max_size=5),
        mark_oov=st.booleans(),
    )
    def test_stdin_blocks_match_per_line_oracle(self, demo_expected_dir, lines, last, sizes,
                                                mark_oov):
        """Reads of 1-7 bytes split Bangla characters and lines anywhere."""
        path = demo_expected_dir / "greedy_stems.tsv"
        text = "".join("".join(parts) for parts in lines) + last
        table = read_stem_table(path)
        want = ""
        for line in text.split("\n"):
            word = line.strip()
            if word:
                oov = mark_oov and table.get(word) is None
                want += f"{word}\t[OOV]\n" if oov else f"{stem_word(table, word)}\n"
        argv = ["stem", str(path)] + ["--mark-oov"] * mark_oov
        out, stdin = io.StringIO(), sys.stdin
        try:
            sys.stdin = _stdin(text, sizes)
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
        finally:
            sys.stdin = stdin
        assert out.getvalue() == want

    def test_long_line_in_small_reads_is_one_answer(self, trained, capsys, monkeypatch):
        line = "কখগ" * (4 * 2**20 // 9)  # 4 MiB of UTF-8, 3 bytes a character
        monkeypatch.setattr(sys, "stdin", _stdin(f"{line}\nকাজের\n", sizes=[1024]))
        start = time.perf_counter()
        assert run_cli("stem", str(trained["table"])) == 0
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().out == f"{line}\nকাজ\n"
        assert elapsed < 1.0

    def test_pipe_answers_each_line_before_stdin_closes(self, trained):
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "stemcluster", "stem", str(trained["table"])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
        )
        try:
            proc.stdin.write("কাজের\n".encode("utf-8"))
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            assert ready, "no answer within 10 s while stdin stayed open"
            assert proc.stdout.readline().decode("utf-8") == "কাজ\n"
        finally:
            proc.stdin.close()
            proc.stdout.close()
            proc.stderr.close()
            proc.wait(timeout=10)
        assert proc.returncode == 0

    @pytest.mark.parametrize("redirect, words, stream", [
        ("<&-", [], "stdin"),
        (">&-", ["কাজের"], "stdout"),
    ])
    def test_closed_stream_is_one_error_line(self, trained, redirect, words, stream):
        proc = subprocess.run(
            ["sh", "-c", f'"$@" {redirect}', "sh",
             sys.executable, "-m", "stemcluster", "stem", str(trained["table"]), *words],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(), timeout=60,
        )
        assert proc.returncode == 1
        err = proc.stderr.decode("utf-8")
        assert err.startswith(f"error: {stream} is closed")
        assert err.count("\n") == 1

    def test_stdout_that_cannot_encode_bangla_is_one_error_line(self, trained):
        proc = subprocess.run(
            [sys.executable, "-m", "stemcluster", "stem", str(trained["table"]), "কাজের"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**src_env(), "PYTHONIOENCODING": "ascii"}, timeout=60,
        )
        assert proc.returncode == 1
        err = proc.stderr.decode("ascii")
        assert "Traceback" not in err
        assert err.startswith("error: stdout: cannot encode the output as ascii")
        assert err.count("\n") == 1

    def test_undecodable_stdin_is_one_error_line(self, trained, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8"))
        assert run_cli("stem", str(trained["table"])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: stdin: not valid utf-8")
        assert captured.err.count("\n") == 1

    # the flag before, between or after the arguments
    @pytest.mark.parametrize("at", [3, 0, 1, 2])
    def test_mark_oov(self, trained, capsys, at):
        argv = [str(trained["table"]), "কাজের", "কখগঘ"]
        argv.insert(at, "--mark-oov")
        assert run_cli("stem", *argv) == 0
        assert capsys.readouterr().out == "কাজ\nকখগঘ\t[OOV]\n"

    def test_stem_of_stem_is_itself(self, trained, capsys):
        run_cli("stem", str(trained["table"]), "কাজ")
        assert capsys.readouterr().out == "কাজ\n"

    def test_malformed_table_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("#stemcluster v1 order=2 threshold=0.06\nabc\n", encoding="utf-8")
        assert run_cli("stem", str(bad), "abc") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert ":2:" in err

    def test_missed_query_is_cleaned_once(self, trained, capsys):
        code = run_cli("stem", str(trained["table"]), "কাজের,", "কাজ, বই", "--mark-oov")
        assert code == 0
        assert capsys.readouterr().out == "কাজ\nকাজ, বই\t[OOV]\n"

    def test_bad_table_header_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("#stemcluster v1 ordr=3 bogus\nab\tab\n", encoding="utf-8")
        assert run_cli("stem", str(bad), "ab") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("error:") == 1
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_table_threshold_is_one_error_line(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"#stemcluster v1 order=2 threshold={value}\nab\tab\n", encoding="utf-8")
        assert run_cli("stem", str(bad), "ab") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("error:") == 1
        assert captured.err.count("\n") == 1
        assert ":1:" in captured.err


class TestEvaluate:
    def test_crlf_gold_is_one_error_line_not_a_zero_score(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text('[{"stem": "কাজ", "members": ["কাজ", "কাজের"]}]', encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_bytes("কাজ\tকাজ\r\nকাজের\tকাজ\r\n".encode("utf-8"))
        assert run_cli("evaluate", str(report), str(gold), "--strict") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {gold}:1: ")
        assert "CRLF line endings" in captured.err
        assert captured.err.count("\n") == 1
        # the same rows with LF endings score the cluster correct
        gold.write_bytes("কাজ\tকাজ\nকাজের\tকাজ\n".encode("utf-8"))
        assert run_cli("evaluate", str(report), str(gold), "--strict") == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == 1.0

    def test_gold_with_byte_order_mark_covers_its_first_word(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text('[{"stem": "কাজ", "members": ["কাজ", "কাজের"]}]', encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_bytes(codecs.BOM_UTF8 + "কাজ\tকাজ\nকাজের\tকাজ\n".encode("utf-8"))
        assert run_cli("evaluate", str(report), str(gold), "--strict") == 0
        got = json.loads(capsys.readouterr().out)
        assert (got["uncovered_words"], got["correct_words"]) == (0, 2)

    def test_json_matches_committed_report(self, trained, demo_gold, demo_expected_dir, capsys):
        assert run_cli("evaluate", str(trained["report"]), str(demo_gold)) == 0
        got = json.loads(capsys.readouterr().out)
        expected = json.loads((demo_expected_dir / "eval_greedy.json").read_text("utf-8"))
        assert got == expected

    @pytest.mark.parametrize(
        "backend, correct, total, run",
        [
            ("greedy", 8, 11, None),
            ("ap-coeff", 10, 13, {"converged": True, "iterations": 19}),
            ("ap-median", 0, 5, {"converged": True, "iterations": 36}),
        ],
    )
    def test_demo_quality_per_backend(
        self, tmp_path, demo_expected_dir, demo_gold, capsys, backend, correct, total, run
    ):
        report = tmp_path / "r.json"
        assert run_cli(
            "train", str(demo_expected_dir / "lexicon.txt"),
            "--backend", backend,
            "--stem-table", str(tmp_path / "t.tsv"),
            "--report", str(report),
        ) == 0
        capsys.readouterr()
        assert run_cli("evaluate", str(report), str(demo_gold)) == 0
        got = json.loads(capsys.readouterr().out)
        assert (got["correct_clusters"], got["total_clusters"]) == (correct, total)
        if run is not None:
            _, meta = read_cluster_report(report)
            assert {key: meta[key] for key in run} == run

    def test_table_output(self, trained, demo_gold, capsys):
        assert run_cli("evaluate", str(trained["report"]), str(demo_gold), "--table") == 0
        out = capsys.readouterr().out
        assert "Accuracy" in out
        assert "72%" in out

    def test_min_accuracy_gate(self, trained, demo_gold, capsys):
        assert run_cli(
            "evaluate", str(trained["report"]), str(demo_gold), "--min-accuracy", "0.5"
        ) == 0
        capsys.readouterr()
        code = run_cli(
            "evaluate", str(trained["report"]), str(demo_gold), "--min-accuracy", "0.9"
        )
        assert code == 1
        captured = capsys.readouterr()
        # the report still goes out, and main prints the gate's one error line
        assert json.loads(captured.out)["correct_clusters"] == 8
        assert captured.err == "error: accuracy 0.7273 below required 0.9\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5"])
    def test_min_accuracy_outside_unit_interval_is_usage_error(
        self, trained, demo_gold, capsys, value
    ):
        code = run_cli(
            "evaluate", str(trained["report"]), str(demo_gold), f"--min-accuracy={value}"
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_strict_mode_flag(self, trained, demo_gold, capsys):
        assert run_cli("evaluate", str(trained["report"]), str(demo_gold), "--strict") == 0
        got = json.loads(capsys.readouterr().out)
        assert got["correct_clusters"] == 8

    def test_pure_single_cluster_report(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_text(
            json.dumps([{"stem": "aa", "members": ["aa", "ab"]}]), encoding="utf-8"
        )
        gold = tmp_path / "gold.tsv"
        gold.write_text("aa\tS1\nab\tS1\n", encoding="utf-8")
        assert run_cli("evaluate", str(report), str(gold)) == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == 1.0

    def test_impure_cluster_scores_zero(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_text(
            json.dumps([{"stem": "aa", "members": ["aa", "ba"]}]), encoding="utf-8"
        )
        gold = tmp_path / "gold.tsv"
        gold.write_text("aa\tS1\nba\tS2\n", encoding="utf-8")
        assert run_cli("evaluate", str(report), str(gold)) == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == 0.0

    def test_non_utf8_report_is_one_error_line(self, tmp_path, demo_gold, capsys):
        report = tmp_path / "r.json"
        report.write_bytes(b'[{"stem": "\xff\xfe", "members": ["\xff\xfe"]}]')
        assert run_cli("evaluate", str(report), str(demo_gold)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "not valid UTF-8" in err

    def test_deeply_nested_report_is_one_error_line(self, tmp_path, demo_gold, capsys):
        report = tmp_path / "r.json"
        report.write_text("[" * 100_000, encoding="utf-8")
        assert run_cli("evaluate", str(report), str(demo_gold)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_bad_gold_file_propagates(self, trained, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("no tabs here\n", encoding="utf-8")
        assert run_cli("evaluate", str(trained["report"]), str(gold)) == 1
        assert capsys.readouterr().err.startswith("error: ")


@st.composite
def _mutant(draw, data: bytes) -> bytes:
    """``data`` truncated, with one byte flipped, with a slice of itself
    spliced in elsewhere, or replaced by random bytes."""
    kind = draw(st.sampled_from(["truncate", "flip", "splice", "random"]))
    if kind == "random":
        return draw(st.binary(max_size=300))
    at = draw(st.integers(0, len(data) - 1))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, len(data)))
    return data[:at] + data[start:end] + data[at:]


class TestReaderFuzz:
    """Every reader, fed mutated demo files through ``main``, exits 0, 1 or 2
    with exactly one ``error:`` line on failure and never lets an exception out."""

    @settings(max_examples=300)
    @given(
        target=st.sampled_from(["lexicon", "table", "report", "gold"]),
        backend=st.sampled_from(["greedy", "ap-coeff", "ap-median"]),
        data=st.data(),
    )
    def test_mutated_input_exits_with_at_most_one_error_line(
        self, demo_expected_dir, demo_gold, target, backend, data
    ):
        originals = {
            "lexicon": demo_expected_dir / "lexicon.txt",
            "table": demo_expected_dir / "greedy_stems.tsv",
            "report": demo_expected_dir / "greedy_report.json",
            "gold": demo_gold,
        }
        with tempfile.TemporaryDirectory() as workdir:
            files = {name: str(path) for name, path in originals.items()}
            files[target] = str(Path(workdir) / f"mutant-{target}")
            Path(files[target]).write_bytes(
                data.draw(_mutant(originals[target].read_bytes()))
            )
            if target == "lexicon":
                argv = [
                    "train", files["lexicon"], "--backend", backend,
                    "--stem-table", str(Path(workdir) / "t.tsv"),
                    "--report", str(Path(workdir) / "r.json"),
                ]
            elif target == "table":
                argv = ["stem", files["table"], "কাজের", "বইটি", "--mark-oov"]
            else:
                argv = ["evaluate", files["report"], files["gold"]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2)
        if code != 0:
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            assert len(errors) == 1


# Runs the named commands, in order, in a fresh interpreter and reports,
# after each one, whether numpy, statistics, dataclasses and json have been
# imported, and which of the package's modules are loaded; only clustering
# needs numpy, and no command needs statistics.
_IMPORT_PROBE = """
import contextlib, io, sys
def heavy():
    return [name in sys.modules for name in ("numpy", "statistics", "dataclasses", "json")]
def package():
    return sorted(name.partition(".")[2] for name in sys.modules if name.startswith("stemcluster."))
import stemcluster
loaded = [("import stemcluster", *heavy())]
modules = [("import stemcluster", package())]
from stemcluster.cli import main
corpus, gold, report, table, lexicon, workdir, *names = sys.argv[1:]
outputs = ["--stem-table", workdir + "/t.tsv", "--report", workdir + "/r.json"]
steps = {
    "--help": (["--help"], ""),
    "preprocess": (["preprocess", corpus, "-o", workdir + "/lexicon.txt"], ""),
    "evaluate": (["evaluate", report, gold], ""),
    "stem words": (["stem", table, "কাজের", "কখগঘ"], ""),
    "stem stdin": (["stem", table], "কাজের\\nবইটি\\n"),
    "train refused": (["train", lexicon, "--backend", "ap-coeff", "--max-points", "2", *outputs], ""),
    "train greedy": (["train", lexicon, "--backend", "greedy", *outputs], ""),
    "train ap": (["train", lexicon, "--backend", "ap-coeff", *outputs], ""),
}
for name in names:
    argv, stdin = steps[name]
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == (1 if name == "train refused" else 0), (name, code)
    loaded.append((name, *heavy()))
    modules.append((name, package()))
import json
print(json.dumps([loaded, modules]))
"""

# the modules every command loads: the CLI's parser needs only these
_PARSER_MODULES = ["cli", "config", "errors", "ngrams"]


def _probe_imports(tmp_path, demo_corpus, demo_gold, demo_expected_dir, *names):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(demo_corpus), str(demo_gold),
         str(demo_expected_dir / "greedy_report.json"),
         str(demo_expected_dir / "greedy_stems.tsv"),
         str(demo_expected_dir / "lexicon.txt"), str(tmp_path), *names],
        capture_output=True, text=True, encoding="utf-8", env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_MEMORY_PROBE = """
import resource, sys
import numpy
from stemcluster.cli import main
extra, lexicon, workdir = float(sys.argv[1]), sys.argv[2], sys.argv[3]
with open("/proc/self/status", encoding="ascii") as status:
    size = next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (size + int(extra), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(["train", lexicon, "--backend", "ap-coeff", "--max-iter", "2",
               "--stem-table", workdir + "/t.tsv", "--report", workdir + "/r.json"]))
"""


# Trains the demo lexicon in an interpreter where numpy cannot be imported.
_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from stemcluster.cli import main
lexicon, workdir = sys.argv[1:]
sys.exit(main(["train", lexicon, "--stem-table", workdir + "/t.tsv",
               "--report", workdir + "/r.json"]))
"""


class TestThresholdSweep:
    def test_default_row_matches_committed_greedy_report(self, demo_expected_dir, demo_gold):
        script = Path(__file__).resolve().parents[1] / "scripts" / "threshold_sweep.py"
        proc = subprocess.run(
            [sys.executable, str(script), str(demo_expected_dir / "lexicon.txt"),
             "--gold", str(demo_gold)],
            capture_output=True, text=True, encoding="utf-8", env=src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        rows = {fields[0]: fields[1:] for fields in map(str.split, proc.stdout.splitlines()[1:])}
        clusters, _ = read_cluster_report(demo_expected_dir / "greedy_report.json")
        stats = report_stats(clusters)
        assert rows["0.060"][:2] == ["11", "0.229"]
        assert rows["0.060"][:2] == [
            str(stats["total_clusters"]), f"{stats['reduction_ratio']:.3f}"
        ]


class TestEntryPoint:
    def test_only_train_loads_numpy(self, tmp_path, demo_corpus, demo_gold, demo_expected_dir):
        loaded, _modules = _probe_imports(
            tmp_path, demo_corpus, demo_gold, demo_expected_dir, "--help", "preprocess",
            "evaluate", "stem words", "stem stdin", "train refused", "train greedy",
        )
        # per step: numpy, statistics, dataclasses and json loaded; no class
        # is generated at import, and json is loaded by the first command
        # that reads or writes it
        assert loaded == [
            ["import stemcluster", False, False, False, False],
            ["--help", False, False, False, False],
            ["preprocess", False, False, False, False],
            ["evaluate", False, False, False, True],
            ["stem words", False, False, False, True],
            ["stem stdin", False, False, False, True],
            # APConfig refuses the run before ap or numpy is imported
            ["train refused", False, False, False, True],
            # the probe does see numpy once a command needs it
            ["train greedy", True, False, False, True],
        ]

    @pytest.mark.parametrize(
        "name, modules",
        [
            ("--help", _PARSER_MODULES),
            ("preprocess", [*_PARSER_MODULES, "preprocess"]),
            ("evaluate", [*_PARSER_MODULES, "clusters", "evaluation", "preprocess"]),
            ("stem words", [*_PARSER_MODULES, "clusters", "greedy", "preprocess"]),
            ("stem stdin", [*_PARSER_MODULES, "clusters", "greedy", "preprocess"]),
            ("train greedy",
             [*_PARSER_MODULES, "clusters", "evaluation", "greedy", "preprocess"]),
            # the capacity guard refuses before any clustering module is loaded
            ("train refused", [*_PARSER_MODULES, "preprocess"]),
            # an AP backend loads the whole package
            ("train ap",
             [*_PARSER_MODULES, "ap", "clusters", "evaluation", "greedy", "preprocess"]),
        ],
    )
    def test_each_command_loads_only_its_modules(
        self, tmp_path, demo_corpus, demo_gold, demo_expected_dir, name, modules
    ):
        _loaded, loaded_modules = _probe_imports(
            tmp_path, demo_corpus, demo_gold, demo_expected_dir, name
        )
        assert loaded_modules == [["import stemcluster", []], [name, sorted(modules)]]

    def test_ap_train_loads_numpy(self, tmp_path, demo_corpus, demo_gold, demo_expected_dir):
        loaded, _modules = _probe_imports(
            tmp_path, demo_corpus, demo_gold, demo_expected_dir, "train ap"
        )
        assert loaded == [
            ["import stemcluster", False, False, False, False],
            ["train ap", True, False, False, True],
        ]

    def test_train_without_numpy_is_one_error_line(self, tmp_path, demo_expected_dir):
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_NUMPY, str(demo_expected_dir / "lexicon.txt"),
             str(tmp_path)],
            capture_output=True, text=True, encoding="utf-8", env=src_env(), timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "numpy" in proc.stderr
        assert not (tmp_path / "r.json").exists()

    def test_train_runs_under_a_profiler(self, tmp_path, demo_expected_dir):
        # a profiler holds a reference to each array method it sees called
        table = tmp_path / "t.tsv"
        proc = subprocess.run(
            [sys.executable, "-m", "cProfile", "-o", str(tmp_path / "profile.out"),
             "-m", "stemcluster", "train", str(demo_expected_dir / "lexicon.txt"),
             "--stem-table", str(table), "--report", str(tmp_path / "r.json")],
            capture_output=True, text=True, encoding="utf-8", env=src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert table.read_bytes() == (demo_expected_dir / "greedy_stems.tsv").read_bytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    @pytest.mark.parametrize("budget", [0.1, 1.5])
    def test_ap_out_of_memory_is_one_error_line(self, tmp_path, budget):
        # the child caps its own address space at its size plus ``budget`` x
        # n^2 x 8 B: 0.1 fails while the similarity store is built, 1.5 in
        # message passing
        n = 3000
        lexicon = tmp_path / "lexicon.txt"
        write_lexicon(synthetic_lexicon(n, seed=3), lexicon)
        proc = subprocess.run(
            [sys.executable, "-c", _MEMORY_PROBE, str(budget * n * n * 8), str(lexicon),
             str(tmp_path)],
            capture_output=True, text=True, encoding="utf-8",
            env={**src_env(), "OPENBLAS_NUM_THREADS": "1"},
            timeout=300,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (
            f"error: out of memory: affinity propagation over {n} words would peak near "
            f"0.2 GiB (3.5 x n^2 x 8 B)\n"
        )

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stemcluster", "--help"],
            capture_output=True,
            text=True,
            encoding="utf-8",
        )
        assert proc.returncode == 0
        for command in ("preprocess", "train", "stem", "evaluate"):
            assert command in proc.stdout
