import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import amrforge
from amrforge import is_isomorphic, read_corpus
from amrforge.cli import run

from conftest import CONTRAST_TEXT, GOLDEN_SEQUENCE

MODAL_TEXT = (
    "# ::id m1\n"
    "# ::snt The boy can not go .\n"
    "(p / possible :domain (g / go :arg0 (b / boy)) :polarity (n / negative))\n"
)


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.amr"
    path.write_text(
        MODAL_TEXT + "\n# ::id m2\n# ::snt Self harming is addictive .\n"
        + CONTRAST_TEXT + "\n",
        encoding="utf-8",
    )
    return path


def test_linearize_prints_golden_sequence(corpus, capsys):
    assert run(["linearize", str(corpus)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == GOLDEN_SEQUENCE


def test_linearize_accepts_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.amr"
    path.write_bytes(b"\xef\xbb\xbf" + MODAL_TEXT.encode("utf-8"))
    assert run(["linearize", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [GOLDEN_SEQUENCE]


def test_linearize_accepts_byte_order_mark_on_stdin(monkeypatch, capsys):
    payload = b"\xef\xbb\xbf" + MODAL_TEXT.encode("utf-8")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload)))
    assert run(["linearize", "-"]) == 0
    assert capsys.readouterr().out.splitlines() == [GOLDEN_SEQUENCE]


@pytest.mark.parametrize("command", ["linearize", "corrupt"])
def test_constant_with_spaces_has_no_token_line(command, tmp_path, capsys):
    path = tmp_path / "spaces.amr"
    path.write_text('(c / city :name (n / name :op1 "New York"))\n',
                    encoding="utf-8")
    out = tmp_path / "out.txt"
    assert run([command, str(path), "-o", str(out)]) == 1
    assert "'\"New York\"'" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == ""


def test_linearize_delinearize_pipe_is_isomorphic(corpus, tmp_path, capsys):
    toks_file = tmp_path / "toks.txt"
    penman_file = tmp_path / "back.amr"
    assert run(["linearize", str(corpus), "-o", str(toks_file)]) == 0
    assert run(["delinearize", str(toks_file), "-o", str(penman_file)]) == 0
    with open(corpus, encoding="utf-8") as handle:
        originals = [d.graph for d in read_corpus(handle)]
    with open(penman_file, encoding="utf-8") as handle:
        rebuilt = [d.graph for d in read_corpus(handle)]
    assert len(originals) == len(rebuilt) == 2
    for left, right in zip(originals, rebuilt):
        assert is_isomorphic(left, right)


def test_validate_reports_diagnostics(tmp_path, capsys):
    path = tmp_path / "bad.amr"
    path.write_text("(a / boy)\n\n(z1 / harm-01 :ARG1 z1)\n", encoding="utf-8")
    assert run(["validate", str(path)]) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[0]["diagnostics"] == []
    assert rows[1]["diagnostics"][0]["code"] == "cycle"


def test_validate_clean_corpus_exits_zero(corpus, capsys):
    assert run(["validate", str(corpus)]) == 0


def test_stats_rows_and_summary(corpus, capsys):
    assert run(["stats", str(corpus)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [json.loads(line) for line in lines]
    assert rows[0]["size"] == 4 and rows[0]["depth"] == 2
    assert rows[1]["reentrancies"] == 1
    assert rows[-1]["summary"]["size"]["1-10"] == 2


def test_build_tasks_cardinality_and_determinism(corpus, tmp_path):
    out1, out2, out3 = (tmp_path / f"t{i}.jsonl" for i in range(3))
    base = ["build-tasks", str(corpus), "--tasks", "all", "--T", "100000"]
    assert run(base + ["--seed", "7", "-o", str(out1)]) == 0
    assert run(base + ["--seed", "7", "-o", str(out2)]) == 0
    assert run(base + ["--seed", "8", "-o", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()
    lines = out1.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 12  # 2 pairs x 6 pre-training tasks
    for line in lines:
        row = json.loads(line)
        assert row["input"][0] == "<s>" and row["input"][-1] == "</g>"


def test_build_tasks_finetune_subset(corpus, tmp_path):
    out = tmp_path / "ft.jsonl"
    assert run(["build-tasks", str(corpus), "--tasks", "finetune",
                "-o", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["task"] for r in rows] == ["et_g2t", "t_eg2g", "et_g2t", "t_eg2g"]


def test_build_tasks_requires_text_metadata(tmp_path):
    path = tmp_path / "no_text.amr"
    path.write_text("(a / boy)\n", encoding="utf-8")
    assert run(["build-tasks", str(path)]) == 1


def test_corrupt_is_deterministic(corpus, tmp_path):
    out1, out2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
    assert run(["corrupt", str(corpus), "--seed", "5", "-o", str(out1)]) == 0
    assert run(["corrupt", str(corpus), "--seed", "5", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_environment_variable(corpus, tmp_path, monkeypatch):
    flagged, from_env = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["build-tasks", str(corpus), "--seed", "21",
                "-o", str(flagged)]) == 0
    monkeypatch.setenv("AMRFORGE_SEED", "21")
    assert run(["build-tasks", str(corpus), "-o", str(from_env)]) == 0
    assert flagged.read_bytes() == from_env.read_bytes()


def test_smatch_identity(corpus, capsys):
    assert run(["smatch", str(corpus), str(corpus)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pairs"] == 2
    assert report["smatch"]["f1"] == 1.0


def test_smatch_fine_report(corpus, capsys):
    assert run(["smatch", str(corpus), str(corpus), "--fine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["unlabeled"]["f1"] == 1.0
    assert report["reentrancy"]["f1"] == 1.0
    assert report["wikification"] is None


def test_smatch_lenient_scores_malformed_prediction(corpus, tmp_path, capsys):
    predicted = tmp_path / "pred.amr"
    predicted.write_text(
        "(p / possible :domain (g / go :arg0 (b / boy)) :polarity (n / negative))\n"
        "\n(broken / oops :mod\n",
        encoding="utf-8",
    )
    assert run(["smatch", str(corpus), str(predicted)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["smatch"]["f1"] < 1.0


def test_smatch_pair_count_mismatch(corpus, tmp_path):
    predicted = tmp_path / "one.amr"
    predicted.write_text("(a / boy)\n", encoding="utf-8")
    assert run(["smatch", str(corpus), str(predicted)]) == 1


def test_smatch_parallel_matches_serial(corpus, tmp_path):
    serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
    assert run(["smatch", str(corpus), str(corpus), "-o", str(serial)]) == 0
    assert run(["smatch", str(corpus), str(corpus), "--jobs", "2",
                "-o", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_bleu_report(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text("the boy can not go\nthe dog sees a cat\n", encoding="utf-8")
    hyp.write_text("the boy can not go\nthe dog sees a cat\n", encoding="utf-8")
    assert run(["bleu", str(ref), str(hyp)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bleu"] == 1.0


def test_vocab_writes_table_and_sidecar(corpus, tmp_path):
    out = tmp_path / "vocab.txt"
    assert run(["vocab", str(corpus), "-o", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "(" and "[mask]" in lines
    sidecar = json.loads((tmp_path / "vocab.txt.partitions.json").read_text())
    assert sidecar["max_pointers"] == 512
    assert sidecar["partitions"]["possible"] == "base"


def test_vocab_base_file_with_byte_order_mark(corpus, tmp_path, capsys):
    base = tmp_path / "base.txt"
    base.write_bytes(b"\xef\xbb\xbf(\n)\n")
    assert run(["vocab", str(corpus), "--base", str(base)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["(", ")"]
    assert not any("\ufeff" in line for line in lines)


def test_delinearize_lenient_repairs(tmp_path, capsys):
    path = tmp_path / "toks.txt"
    path.write_text("( <Z0> go :arg0\nnot a graph at all\n", encoding="utf-8")
    assert run(["delinearize", str(path), "--lenient"]) == 0
    out = capsys.readouterr().out
    docs = list(read_corpus(out))
    assert docs[0].graph.nodes == {"z0": "go"}
    assert docs[1].graph.nodes["z0"] == "amr-empty"


def test_delinearize_lenient_drops_symbols_validate_rejects(tmp_path, capsys):
    path = tmp_path / "toks.txt"
    path.write_text('( <Z0> want-01 :ARG0 x"y )\n( <Z0> a/b )\n', encoding="utf-8")
    assert run(["delinearize", str(path), "--lenient"]) == 0
    out = capsys.readouterr().out
    assert out == "(z0 / want-01)\n\n(z0 / amr-empty)\n"


def test_delinearize_strict_fails_on_malformed(tmp_path):
    path = tmp_path / "toks.txt"
    path.write_text("( <Z0> go :arg0\n", encoding="utf-8")
    assert run(["delinearize", str(path)]) == 1


def test_closed_stdout_ends_quietly(corpus, monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert run(["vocab", str(corpus)]) == 0
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == ""


def test_closed_pipe_leaves_no_unclosed_file(corpus):
    # the reader takes one line of a vocabulary far larger than a pipe
    # buffer, so a later write meets the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(amrforge.__file__).parents[1]))
    process = subprocess.Popen(
        [sys.executable, "-X", "dev", "-m", "amrforge.cli", "vocab", str(corpus),
         "--max-pointers", "50000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert process.stdout.readline() == b"(\n"
    process.stdout.close()
    _, err = process.communicate(timeout=60)
    assert process.returncode == 0
    assert err.decode() == ""


def test_missing_input_file_exits_one(tmp_path):
    assert run(["linearize", str(tmp_path / "nope.amr")]) == 1


def test_usage_error_exits_two():
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


def test_strict_corpus_error_reports_index(tmp_path):
    path = tmp_path / "bad.amr"
    path.write_text("(a / boy)\n\n(broken / x :mod\n", encoding="utf-8")
    assert run(["linearize", str(path)]) == 1


def test_build_tasks_accepts_explicit_task_names(corpus, tmp_path):
    out = tmp_path / "explicit.jsonl"
    assert run(["build-tasks", str(corpus), "--tasks", "mt_g2t,t_mg2g",
                "-o", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["task"] for r in rows] == ["mt_g2t", "t_mg2g", "mt_g2t", "t_mg2g"]
    assert run(["build-tasks", str(corpus), "--tasks", "bogus",
                "-o", str(out)]) == 1


def test_smatch_report_key_set(corpus, capsys):
    assert run(["smatch", str(corpus), str(corpus)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["seed", "pairs", "smatch"]
    assert set(report["smatch"]) == {"precision", "recall", "f1"}
