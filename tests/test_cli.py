import argparse
import errno
import io
import json
import os
import random
import stat
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import amrforge
from amrforge import (
    AmrGraph,
    CorruptionConfig,
    MaskSchedule,
    TaskTag,
    build_corpus,
    corrupt_graph,
    derive_rng,
    graph_to_penman,
    is_isomorphic,
    linearize,
    parse_penman,
    read_corpus,
    restore_tokens,
    sample_to_json,
    synth,
)
from amrforge._files import lines
from amrforge.cli import _read_lines, run
from amrforge.metrics import FINE_GRAINED_KEYS
from amrforge.tokens import from_text, to_text

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


NEW_YORK = '(c / city :name (n / name :op1 "New York"))\n'


def test_constant_with_spaces_round_trips_through_token_lines(tmp_path):
    path = tmp_path / "spaces.amr"
    path.write_text(NEW_YORK, encoding="utf-8")
    toks, back = tmp_path / "toks.txt", tmp_path / "back.amr"
    assert run(["linearize", str(path), "-o", str(toks)]) == 0
    assert toks.read_text(encoding="utf-8") == (
        '( <Z0> city :name ( <Z1> name :op1 "New York" ) )\n')
    assert run(["delinearize", str(toks), "-o", str(back)]) == 0
    rebuilt = parse_penman(back.read_text(encoding="utf-8")).graph
    assert is_isomorphic(rebuilt, parse_penman(NEW_YORK).graph)


def test_constant_with_spaces_survives_corrupt(tmp_path):
    path = tmp_path / "spaces.amr"
    path.write_text(NEW_YORK, encoding="utf-8")
    out = tmp_path / "out.txt"
    # no sub-graph cut, which could take the constant away
    assert run(["corrupt", str(path), "--seed", "3", "--subgraph-rate", "0",
                "--node-rate", "1", "-o", str(out)]) == 0
    [line] = out.read_text(encoding="utf-8").splitlines()
    graph = parse_penman(NEW_YORK).graph
    config = CorruptionConfig(seed=3, subgraph_rate=0.0, node_rate=1.0)
    toks, edits = corrupt_graph(graph, config, derive_rng(3, 0))
    assert '"New York"' in toks
    assert from_text(line) == toks
    assert restore_tokens(from_text(line), edits) == linearize(graph)


# A backslash before the closing quote escapes it in PENMAN, so "a\" is
# no usable constant: writing it would give text no reader accepts
BACKSLASH_LINE = r'( <Z0> thing :op1 "a\" )' + "\n"


def test_constant_ending_in_a_backslash_fails_a_strict_delinearize(tmp_path, capsys):
    path = tmp_path / "toks.txt"
    path.write_text(BACKSLASH_LINE, encoding="utf-8")
    assert run(["delinearize", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        r"""amrforge: error: unusable constant '"a\\"' (token 4)""" + "\n")


def test_constant_ending_in_a_backslash_is_dropped_when_lenient(tmp_path):
    path = tmp_path / "toks.txt"
    path.write_text(BACKSLASH_LINE, encoding="utf-8")
    out = tmp_path / "out.amr"
    assert run(["delinearize", "--lenient", str(path), "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "(z0 / thing)\n"
    assert run(["validate", str(out)]) == 0


def test_escaped_quote_is_still_an_unusable_constant(tmp_path, capsys):
    path = tmp_path / "escaped.amr"
    path.write_text(r'(n / name :op1 "a\"b")' + "\n", encoding="utf-8")
    assert run(["validate", str(path)]) == 1
    [row] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert row["diagnostics"] == [{
        "code": "bad-symbol",
        "message": r"""unusable constant '"a\\"b"' under ('n', ':op1')""",
    }]


# named after its pointer <Z1>, the rebuilt node b would be z1, and PENMAN
# would read the constant z1 back as an edge to it
NAMED_LIKE_A_NODE = "(a / x :mod z1 :ARG0 (b / y))\n"


@pytest.mark.parametrize("strict", [True, False])
def test_constant_named_like_a_rebuilt_node_survives_the_pipe(tmp_path, strict):
    path = tmp_path / "named.amr"
    path.write_text(NAMED_LIKE_A_NODE, encoding="utf-8")
    assert run(["validate", str(path)]) == 0
    toks, back = tmp_path / "toks.txt", tmp_path / "back.amr"
    assert run(["linearize", str(path), "-o", str(toks)]) == 0
    # without its last paren the line is rebuilt the same when lenient
    line = toks.read_text(encoding="utf-8")
    toks.write_text(line if strict else line.replace(" )\n", "\n"), encoding="utf-8")
    mode = "--strict" if strict else "--lenient"
    assert run(["delinearize", mode, str(toks), "-o", str(back)]) == 0
    assert back.read_text(encoding="utf-8") == "(zz0 / x :mod z1 :ARG0 (zz1 / y))\n"
    assert run(["validate", str(back)]) == 0


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


def test_stats_output_bytes(corpus, capsys):
    # recorded before GraphStats' fields were written out by asdict: the
    # key order of a row is the order of the fields
    assert run(["stats", str(corpus)]) == 0
    assert capsys.readouterr().out == (
        '{"index": 0, "id": "m1", "size": 4, "depth": 2, "reentrancies": 0, '
        '"size_bucket": "1-10", "depth_bucket": "1-3", "reent_bucket": "0"}\n'
        '{"index": 1, "id": "m2", "size": 7, "depth": 3, "reentrancies": 1, '
        '"size_bucket": "1-10", "depth_bucket": "1-3", "reent_bucket": "1-3"}\n'
        '{"summary": {"size": {"1-10": 2}, "depth": {"1-3": 2}, '
        '"reentrancies": {"0": 1, "1-3": 1}}}\n'
    )


def test_stats_lenient_skips_unusable_documents(tmp_path, capsys):
    path = tmp_path / "mixed.amr"
    path.write_text(
        "(b / boy)\n\n(broken / x :mod\n\n"
        "(a / x :ARG0 (b / y :ARG1 a))\n\n(g / girl)\n",
        encoding="utf-8",
    )
    assert run(["stats", str(path), "--lenient"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["index"] for row in rows[:-1]] == [0, 3]
    summary = rows[-1]["summary"]
    assert summary["size"] == {"1-10": 2}
    assert sum(summary["reentrancies"].values()) == 2


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


# graphs with no text: a metadata block without '# ::tok' or '# ::snt', and none
GRAPH_ONLY = "# ::id g1\n(p / possible :domain (g / go :arg0 (b / boy)))\n\n(b / boy)\n"


def test_build_tasks_takes_documents_without_text_for_et_mg2g(tmp_path):
    path, empty = tmp_path / "graphs.amr", tmp_path / "empty_snt.amr"
    path.write_text(GRAPH_ONLY, encoding="utf-8")
    empty.write_text("# ::id g1\n# ::snt \n(p / possible :domain (g / go :arg0 (b / boy)))\n"
                     "\n# ::snt \n(b / boy)\n", encoding="utf-8")
    outputs = []
    for source in (path, empty):
        out = tmp_path / f"{source.stem}.jsonl"
        assert run(["build-tasks", str(source), "--tasks", "et_mg2g", "--seed", "3",
                    "--T", "10", "-o", str(out)]) == 0
        outputs.append(out.read_text(encoding="utf-8"))
    pairs = [(None, document.graph) for document in read_corpus(GRAPH_ONLY)]
    samples = build_corpus(pairs, MaskSchedule(total_steps=10), CorruptionConfig(seed=3),
                           [TaskTag.ET_MG2G])
    assert outputs == ["".join(sample_to_json(s) + "\n" for s in samples)] * 2
    assert outputs[0].count("\n") == 2


@pytest.mark.parametrize("tasks", [["--tasks", "mt_eg2t"], []], ids=["mt_eg2t", "all"])
def test_build_tasks_text_task_fails_on_documents_without_text(tasks, tmp_path, capsys):
    path, out = tmp_path / "graphs.amr", tmp_path / "out.jsonl"
    path.write_text(GRAPH_ONLY, encoding="utf-8")
    assert run(["build-tasks", str(path), *tasks, "-o", str(out)]) == 1
    assert "pair 0: task mt_eg2t requires a non-empty text" in capsys.readouterr().err
    assert not out.exists()


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


def test_vocab_failed_sidecar_leaves_the_token_file_unchanged(corpus, tmp_path):
    out = tmp_path / "vocab.txt"
    out.write_text("old\n", encoding="utf-8")
    sidecar = tmp_path / "vocab.txt.partitions.json"
    sidecar.mkdir()  # the sidecar cannot be written
    assert run(["vocab", str(corpus), "-o", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == "old\n"
    assert sorted(os.listdir(tmp_path)) == [
        "corpus.amr", "vocab.txt", "vocab.txt.partitions.json"]
    # once it can, both files hold save_vocabulary's bytes
    sidecar.rmdir()
    assert run(["vocab", str(corpus), "-o", str(out)]) == 0
    with open(corpus, encoding="utf-8") as handle:
        documents = list(read_corpus(handle))
    saved = tmp_path / "saved.txt"
    amrforge.save_vocabulary(amrforge.build_vocabulary(
        ["(", ")"], amrforge.collect_symbols(documents)), saved)
    assert out.read_bytes() == saved.read_bytes()
    assert sidecar.read_bytes() == Path(f"{saved}.partitions.json").read_bytes()


def test_vocab_failed_token_file_leaves_the_sidecar_unchanged(corpus, tmp_path):
    out = tmp_path / "vocab.txt"
    out.mkdir()  # the token file cannot be written
    sidecar = tmp_path / "vocab.txt.partitions.json"
    assert run(["vocab", str(corpus), "-o", str(out)]) == 1
    assert sorted(os.listdir(tmp_path)) == ["corpus.amr", "vocab.txt"]
    # an existing sidecar keeps its bytes
    sidecar.write_text("old\n", encoding="utf-8")
    assert run(["vocab", str(corpus), "-o", str(out)]) == 1
    assert sidecar.read_text(encoding="utf-8") == "old\n"
    assert sorted(os.listdir(tmp_path)) == [
        "corpus.amr", "vocab.txt", "vocab.txt.partitions.json"]


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


def test_delinearize_lenient_keeps_blank_lines(tmp_path, capsys):
    # line k is document k: a blank line is the empty sequence, which
    # reads as the fallback graph
    path = tmp_path / "toks.txt"
    path.write_text("( <Z0> boy )\n\n( <Z0> girl )\n", encoding="utf-8")
    assert run(["delinearize", str(path), "--lenient"]) == 0
    out = capsys.readouterr().out
    assert [d.graph.nodes for d in read_corpus(out)] == [
        {"z0": "boy"}, {"z0": "amr-empty"}, {"z0": "girl"}]


def test_delinearize_strict_rejects_blank_line(tmp_path, capsys):
    path = tmp_path / "toks.txt"
    path.write_text("( <Z0> boy )\n \t\n( <Z0> girl )\n", encoding="utf-8")
    out = tmp_path / "out.amr"
    out.write_text("old\n", encoding="utf-8")
    assert run(["delinearize", str(path), "-o", str(out)]) == 1
    assert "empty sequence (token 0)" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "old\n"


def test_delinearize_strict_fails_on_malformed(tmp_path):
    path = tmp_path / "toks.txt"
    path.write_text("( <Z0> go :arg0\n", encoding="utf-8")
    assert run(["delinearize", str(path)]) == 1


@pytest.mark.parametrize("command, text, seed, message", [
    # a strict syntax error and an invalid graph, both in a strict read
    ("linearize", "(a / boy :ARG0\n", None, "document 0: unbalanced '('"),
    ("linearize", "(a / boy :ARG0 a)\n", None, "document 0: invalid graph: cycle"),
    ("delinearize", "( <Z0> boy :ARG0\n", None, "missing close-paren (token 4)"),
    ("build-tasks", "# ::snt \n(a / boy)\n", None,
     "pair 0: task mt_eg2t requires a non-empty text"),
    ("corrupt", "(a / boy)\n", "x", "AMRFORGE_SEED must be an integer"),
    ("linearize", None, None, "No such file or directory"),
], ids=["syntax", "invalid-graph", "structure", "task", "seed", "missing-file"])
def test_each_error_kind_exits_one_with_one_error_line(command, text, seed, message,
                                                       tmp_path, monkeypatch, capsys):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    if seed is not None:
        monkeypatch.setenv("AMRFORGE_SEED", seed)
    assert run([command, str(path)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("amrforge: error: ")]
    assert len(errors) == 1 and message in errors[0]


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


@pytest.mark.parametrize("command, checks_per_document", [
    (["linearize"], 1),
    (["build-tasks", "--tasks", "everything"], 1),
    (["corrupt"], 1),
    (["delinearize", "--lenient"], 0),
])
def test_each_graph_is_validated_once(command, checks_per_document, tmp_path,
                                      diagnose_calls):
    rng = random.Random(59)
    documents = 6
    corpus = tmp_path / "corpus.amr"
    with open(corpus, "w", encoding="utf-8") as out:
        for index in range(documents):
            graph = synth.random_graph(rng, 3, 25, max_reentrancies=3,
                                       attribute_prob=0.2)
            words = " ".join(synth.random_sentence(rng))
            out.write(f"# ::id {index}\n# ::tok {words}\n")
            out.write(graph_to_penman(graph) + "\n\n")
    source = corpus
    if command[0] == "delinearize":  # walked graphs are valid by construction
        source = tmp_path / "lines.txt"
        assert run(["corrupt", str(corpus), "-o", str(source)]) == 0
    diagnose_calls.clear()
    assert run([*command, str(source), "-o", str(tmp_path / "out")]) == 0
    assert len(diagnose_calls) == checks_per_document * documents


@pytest.mark.parametrize("command", [
    ["linearize"], ["corrupt"], ["build-tasks", "--tasks", "everything"],
    ["vocab"], ["validate"],
])
@pytest.mark.parametrize("forward, peels_per_document", [(False, 0), (True, 1)])
def test_nested_penman_skips_the_structural_walk(command, forward,
                                                 peels_per_document, tmp_path,
                                                 monkeypatch):
    rng = random.Random(61)
    documents = 6
    corpus = tmp_path / "corpus.amr"
    with open(corpus, "w", encoding="utf-8") as out:
        for index in range(documents):
            graph = synth.random_graph(rng, 3, 25, max_reentrancies=3,
                                       attribute_prob=0.2)
            words = " ".join(synth.random_sentence(rng))
            text = graph_to_penman(graph)
            if forward:  # a reference to the rendered root, before its paren
                text = f"(w / and :op1 z0 :op2 {text})"
            out.write(f"# ::id {index}\n# ::tok {words}\n{text}\n\n")
    # only a reference to a node whose paren has not closed leaves the
    # structure to validate's peel
    peels = []
    peel = amrforge.amr._peels_from_root
    monkeypatch.setattr(amrforge.amr, "_peels_from_root",
                        lambda *args: peels.append(args) or peel(*args))
    assert run([*command, str(corpus), "-o", str(tmp_path / "out")]) == 0
    assert len(peels) == peels_per_document * documents


def test_missing_input_file_exits_one(tmp_path):
    assert run(["linearize", str(tmp_path / "nope.amr")]) == 1


def test_usage_error_exits_two():
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


def _synth_corpus(path):
    rng = random.Random(33)
    graphs = [synth.random_graph(rng, 8, 20, attribute_prob=0.2) for _ in range(10)]
    path.write_text("".join(graph_to_penman(g) + "\n\n" for g in graphs),
                    encoding="utf-8")
    return graphs


def _corrupted(graphs, seed, **rates) -> str:
    config = CorruptionConfig(seed=seed, **rates)
    return "".join(
        to_text(corrupt_graph(graph, config, derive_rng(seed, index))[0]) + "\n"
        for index, graph in enumerate(graphs)
    )


def test_a_rate_flag_does_not_outlive_its_call(tmp_path):
    # run parses with one parser per process: a rate given once must not
    # become the next call's default
    path, out = tmp_path / "c.amr", tmp_path / "out.txt"
    graphs = _synth_corpus(path)
    default, halved = _corrupted(graphs, 3), _corrupted(graphs, 3, node_rate=0.5)
    assert default != halved
    for flags, expected in (([], default), (["--node-rate", "0.5"], halved),
                            ([], default)):
        assert run(["corrupt", str(path), "--seed", "3", *flags, "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == expected


def test_a_fine_report_does_not_outlive_its_call(corpus, capsys):
    for flags, keys in (([], {"smatch"}), (["--fine"], set(FINE_GRAINED_KEYS)),
                        ([], {"smatch"})):
        assert run(["smatch", str(corpus), str(corpus), *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"seed", "pairs"} | keys


def test_a_usage_error_does_not_outlive_its_call(tmp_path):
    path, out = tmp_path / "c.amr", tmp_path / "out.txt"
    graphs = _synth_corpus(path)
    assert run(["corrupt", str(path), "--node-rate", "2", "-o", str(out)]) == 2
    assert run(["corrupt", str(path), "--seed", "3", "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == _corrupted(graphs, 3)


def test_a_mode_flag_does_not_outlive_its_call(tmp_path):
    # strict is the default again after a --lenient call and a usage error
    bad = tmp_path / "bad.amr"
    bad.write_text("(b / boy)\n\n(broken / x :mod\n", encoding="utf-8")
    assert run(["stats", str(bad), "--lenient"]) == 0
    assert run(["stats", str(bad), "--strict", "--lenient"]) == 2
    assert run(["stats", str(bad)]) == 1


def test_the_parser_is_built_once_per_process(corpus, monkeypatch):
    assert run(["linearize", str(corpus)]) == 0  # builds it if no call has
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["linearize", str(corpus)], ["stats", str(corpus)],
                 ["smatch", str(corpus), str(corpus), "--fine"],
                 ["no-such-command"], ["corrupt", str(corpus), "--node-rate", "2"]):
        run(argv)
    assert built == []


def test_strict_corpus_error_reports_index(tmp_path):
    path = tmp_path / "bad.amr"
    path.write_text("(a / boy)\n\n(broken / x :mod\n", encoding="utf-8")
    assert run(["linearize", str(path)]) == 1


LDC_HEADER = "# AMR release (generated on Fri Jun 17, 2016 at 21:55:56); corpus: LDC\n"


@pytest.mark.parametrize("flags", [[], ["--lenient"]])
def test_a_header_of_plain_comments_is_not_a_document(flags, tmp_path, capsys):
    # an LDC release file starts with a "# AMR release" block: no document
    # is read from it, so the two graphs are documents 0 and 1
    gold, predicted = tmp_path / "ldc.amr", tmp_path / "pred.amr"
    gold.write_text(f"{LDC_HEADER}# another comment\n\n# ::id a.1\n(b / boy)\n\n"
                    "# ::id a.2\n# plain\n(w / want-01 :ARG0 (g / girl))\n",
                    encoding="utf-8")
    predicted.write_text("(x / boy)\n\n(y / want-01 :ARG0 (z / girl))\n", encoding="utf-8")
    assert run(["linearize", *flags, str(gold)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "( <Z0> boy )", "( <Z0> want-01 :ARG0 ( <Z1> girl ) )"]
    assert run(["validate", str(gold)]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(row["index"], row["id"]) for row in rows] == [(0, "a.1"), (1, "a.2")]
    assert run(["smatch", str(gold), str(predicted)]) == 0
    assert json.loads(capsys.readouterr().out)["smatch"]["f1"] == 1.0


def test_a_block_of_metadata_without_a_graph_is_still_an_error(tmp_path, capsys):
    path = tmp_path / "bad.amr"
    path.write_text(f"{LDC_HEADER}\n# ::id a.0\n# a comment\n\n(b / boy)\n",
                    encoding="utf-8")
    assert run(["linearize", str(path)]) == 1
    assert "document 0: expected '(' to start a graph (line 3, column 1)" in (
        capsys.readouterr().err)


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


def test_bleu_lines_end_at_newline_only(tmp_path, capsys):
    ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
    ref.write_text("the boy\x85went home\nhe\rran fast\x0cnow\n", encoding="utf-8",
                   newline="")
    hyp.write_text("the boy went home\nhe ran fast now\n", encoding="utf-8")
    assert run(["bleu", str(ref), str(hyp)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bleu"] == 1.0
    assert report["reference_length"] == report["hypothesis_length"] == 8


def test_bleu_empty_file_has_no_lines(tmp_path, capsys):
    ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
    ref.write_text("", encoding="utf-8")
    hyp.write_text("the boy\n", encoding="utf-8")
    assert run(["bleu", str(ref), str(hyp)]) == 1
    assert "1 hypotheses vs 0 references" in capsys.readouterr().err


def test_bad_seed_fails_only_the_commands_that_use_one(corpus, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.setenv("AMRFORGE_SEED", "abc")
    assert run(["linearize", str(corpus)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == GOLDEN_SEQUENCE
    assert run(["corrupt", str(corpus)]) == 1
    assert "AMRFORGE_SEED must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-5", "two"])
@pytest.mark.parametrize("command", ["smatch", "linearize"])
def test_jobs_below_one_is_a_usage_error(command, jobs, corpus, capsys):
    inputs = [str(corpus)] * (2 if command == "smatch" else 1)
    assert run([command, *inputs, "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("restarts", ["0", "-3"])
@pytest.mark.parametrize("empty", [True, False])
def test_restarts_below_one_is_a_usage_error(restarts, empty, corpus, tmp_path,
                                              capsys):
    if empty:
        corpus = tmp_path / "empty.amr"
        corpus.write_text("", encoding="utf-8")
    out = tmp_path / "scores.json"
    assert run(["smatch", str(corpus), str(corpus), "--restarts", restarts,
                "-o", str(out)]) == 2
    captured = capsys.readouterr()
    # rejected before either corpus is read, so no seed is echoed
    assert "--restarts" in captured.err and "amrforge: seed" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("command, flag", [("build-tasks", "--T"),
                                           ("vocab", "--max-pointers")])
def test_counts_below_one_are_usage_errors(command, flag, value, tmp_path,
                                           capsys):
    # the corpus does not exist: the flag is rejected before any read
    out = tmp_path / "out.txt"
    assert run([command, str(tmp_path / "missing.amr"), flag, value,
                "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "must be a positive integer" in captured.err
    assert "amrforge: seed" not in captured.err
    assert captured.out == "" and not out.exists()


RATE_FLAGS = ["--node-rate", "--edge-rate", "--subgraph-rate", "--text-rate"]


@pytest.mark.parametrize("value", ["2", "-0.1", "nan", "inf", "half"])
@pytest.mark.parametrize("command, flag", [
    *(("corrupt", flag) for flag in RATE_FLAGS[:3]),
    *(("build-tasks", flag) for flag in RATE_FLAGS),
])
def test_rates_outside_zero_to_one_are_usage_errors(command, flag, value, tmp_path,
                                                    capsys):
    # the corpus does not exist: the rate is rejected before any read
    out = tmp_path / "out.txt"
    assert run([command, str(tmp_path / "missing.amr"), flag, value,
                "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "within [0, 1]" in captured.err
    assert "amrforge: seed" not in captured.err
    assert captured.out == "" and not out.exists()


def test_corrupt_has_no_text_rate(tmp_path, capsys):
    # corrupt masks no text, so the flag is unknown: rejected before any read
    out = tmp_path / "out.txt"
    assert run(["corrupt", str(tmp_path / "missing.amr"), "--text-rate", "0.5",
                "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --text-rate" in captured.err
    assert "amrforge: seed" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("flag", RATE_FLAGS)
def test_rates_at_the_bounds_are_accepted(flag, corpus, tmp_path):
    outputs = []
    for value in ("0", "1.0"):
        outputs.append(tmp_path / f"rate-{value}.jsonl")
        assert run(["build-tasks", str(corpus), flag, value,
                    "-o", str(outputs[-1])]) == 0
    assert outputs[0].read_bytes() != outputs[1].read_bytes()


class _RecordingPool:
    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, function, items):
        return [function(item) for item in items]


@pytest.mark.parametrize("jobs, pool_sizes", [("64", [2]), ("2", [2]), ("1", [])])
def test_smatch_starts_at_most_one_worker_per_pair(jobs, pool_sizes, corpus,
                                                   monkeypatch, capsys):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr("multiprocessing.Pool", _RecordingPool)
    assert run(["smatch", str(corpus), str(corpus), "--jobs", jobs]) == 0
    assert _RecordingPool.sizes == pool_sizes
    assert json.loads(capsys.readouterr().out)["smatch"]["f1"] == 1.0


@pytest.mark.parametrize("command", [
    ["linearize"], ["stats"], ["corrupt"], ["build-tasks"], ["vocab"],
])
def test_strict_read_error_writes_no_file(command, tmp_path):
    bad = tmp_path / "bad.amr"
    bad.write_text("# ::tok a boy\n(a / boy)\n\n(broken / x :mod\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run([*command, str(bad), "-o", str(out)]) == 1
    assert not out.exists()
    assert run([*command, str(tmp_path / "missing.amr"), "-o", str(out)]) == 1
    assert not out.exists()


def test_smatch_strict_read_error_writes_no_file(corpus, tmp_path):
    bad = tmp_path / "bad.amr"
    bad.write_text("(a / boy)\n\n(broken / x :mod\n", encoding="utf-8")
    out = tmp_path / "out.json"
    assert run(["smatch", str(corpus), str(bad), "--strict", "-o", str(out)]) == 1
    assert not out.exists()
    assert run(["smatch", str(corpus), str(tmp_path / "missing.amr"),
                "-o", str(out)]) == 1
    assert not out.exists()


def test_delinearize_strict_error_writes_no_file(tmp_path):
    lines = tmp_path / "toks.txt"
    lines.write_text("( <Z0> boy )\n( <Z0> go :arg0\n", encoding="utf-8")
    out = tmp_path / "out.amr"
    assert run(["delinearize", str(lines), "-o", str(out)]) == 1
    assert not out.exists()


# the first document has a token line, the second is a strict read error
# (a cycle) after that line is written
TWO_DOCUMENTS = "(b / boy)\n\n(c / city :ARG0 c)\n"
FAILING_AFTER_A_LINE = [["linearize"], ["corrupt", "--seed", "1"]]


@pytest.mark.parametrize("command", FAILING_AFTER_A_LINE)
def test_error_after_a_line_leaves_no_file(command, tmp_path):
    path = tmp_path / "two.amr"
    path.write_text(TWO_DOCUMENTS, encoding="utf-8")
    out = tmp_path / "out.txt"
    assert run([*command, str(path), "-o", str(out)]) == 1
    assert sorted(os.listdir(tmp_path)) == ["two.amr"]  # no temporary file


@pytest.mark.parametrize("command", FAILING_AFTER_A_LINE)
def test_error_after_a_line_keeps_an_existing_file(command, tmp_path):
    path = tmp_path / "two.amr"
    path.write_text(TWO_DOCUMENTS, encoding="utf-8")
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier output\n")
    assert run([*command, str(path), "-o", str(out)]) == 1
    assert out.read_bytes() == b"earlier output\n"
    assert sorted(os.listdir(tmp_path)) == ["out.txt", "two.amr"]


def test_output_replaces_a_file_through_its_link_and_keeps_its_mode(corpus, tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o600)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert run(["linearize", str(corpus), "-o", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8").splitlines()[0] == GOLDEN_SEQUENCE
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert sorted(os.listdir(tmp_path)) == ["corpus.amr", "link.txt", "target.txt"]


def test_output_in_a_missing_directory_is_named_in_the_error(corpus, tmp_path,
                                                             capsys):
    out = tmp_path / "missing" / "out.txt"
    assert run(["linearize", str(corpus), "-o", str(out)]) == 1
    error = capsys.readouterr().err
    assert repr(str(out)) in error and ".tmp" not in error


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_output_to_a_fifo_is_written_in_place(corpus, tmp_path):
    fifo = tmp_path / "lines"
    os.mkfifo(fifo)
    # a reader must hold the pipe open, or opening it to write would block
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(["linearize", str(corpus), "-o", str(fifo)]) == 0
        received = os.read(reader, 1 << 16).decode("utf-8")
    finally:
        os.close(reader)
    assert received.splitlines()[0] == GOLDEN_SEQUENCE
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["corpus.amr", "lines"]


@pytest.mark.parametrize("argv", [
    ["linearize", "in.amr", "--seed", "1"],
    ["stats", "in.amr", "--seed", "1"],
    ["vocab", "in.amr", "--seed", "1"],
    ["bleu", "ref.txt", "hyp.txt", "--lenient"],
    ["bleu", "ref.txt", "hyp.txt", "--seed", "1"],
    ["validate", "in.amr", "--strict"],
    ["validate", "in.amr", "--lenient"],
])
def test_flags_a_command_does_not_use_are_usage_errors(argv, capsys):
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_validate_reports_every_document_despite_a_syntax_error(tmp_path, capsys):
    path = tmp_path / "bad.amr"
    path.write_text("# ::id a\n(a / boy)\n\n# ::id b\n(broken / x :mod\n\n"
                    "# ::id c\n(c / dog)\n", encoding="utf-8")
    assert run(["validate", str(path)]) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["id"] for row in rows] == ["a", "b", "c"]
    assert [bool(row["diagnostics"]) for row in rows] == [False, True, False]


@pytest.mark.parametrize("command, module, function", [
    ("linearize", "cli", "linearize"),
    ("build-tasks", "tasks", "build_sample"),
])
def test_commands_hold_one_document_at_a_time(command, module, function, tmp_path,
                                              monkeypatch):
    rng = random.Random(23)
    corpus = tmp_path / "corpus.amr"
    with open(corpus, "w", encoding="utf-8") as out:
        for _ in range(20):
            out.write(f"# ::tok {' '.join(synth.random_sentence(rng))}\n")
            out.write(graph_to_penman(synth.random_graph(rng, 3, 12)) + "\n\n")
    target = getattr(amrforge, module)
    original = getattr(target, function)
    refs, alive = [], []

    def spy(*args):
        refs.append(weakref.ref(next(a for a in args if isinstance(a, AmrGraph))))
        alive.append(len({id(g) for g in (ref() for ref in refs) if g is not None}))
        return original(*args)

    monkeypatch.setattr(target, function, spy)
    assert run([command, str(corpus), "-o", str(tmp_path / "out")]) == 0
    # the document at hand, and at most one that a step has yet to drop;
    # a command that reads its whole input first keeps all 20 alive
    assert len(refs) >= 20 and max(alive) <= 2


def test_lines_before_a_strict_read_error_reach_stdout(monkeypatch, capsys):
    payload = b"(b / boy)\n\n(broken / x :mod\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload)))
    assert run(["linearize", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "( <Z0> boy )\n"
    assert "document 1" in captured.err


@pytest.mark.parametrize("command, payload, out, position", [
    (["linearize"], b"(b / boy)\n\n(c / \xff)\n", "( <Z0> boy )\n", 5),
    (["delinearize", "--lenient"], b"( <Z0> boy )\n( <Z0> \xff )\n", "(z0 / boy)\n", 7),
], ids=["linearize", "delinearize"])
def test_lines_before_a_decode_error_reach_stdout(command, payload, out, position,
                                                  monkeypatch, capsys):
    # bytes are decoded a line at a time, not a read-ahead chunk at a time
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload)))
    assert run([*command, "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == out
    errors = [line for line in captured.err.splitlines()
              if line.startswith("amrforge: error: ")]
    assert errors == [f"amrforge: error: 'utf-8' codec can't decode byte 0xff "
                      f"in position {position}: invalid start byte"]


def test_failing_mid_stream_closes_the_input(tmp_path):
    path = tmp_path / "two.amr"
    path.write_text(TWO_DOCUMENTS, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(amrforge.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "amrforge.cli", "linearize", str(path)],
        capture_output=True, env=env, timeout=60,
    )
    assert done.returncode == 1
    assert done.stdout == b"( <Z0> boy )\n"
    assert done.stderr.decode().startswith("amrforge: error:")
    assert "ResourceWarning" not in done.stderr.decode()


def test_strict_delinearize_error_on_stdin_is_one_line():
    env = dict(os.environ, PYTHONPATH=str(Path(amrforge.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "amrforge.cli", "delinearize", "-"],
        input=b"( <Z0> boy )\n( <Z0> boy :ARG0\n", capture_output=True, env=env,
        timeout=60,
    )
    assert done.returncode == 1
    assert done.stdout == b"(z0 / boy)\n"
    assert done.stderr == b"amrforge: error: missing close-paren (token 4)\n"


@pytest.mark.parametrize("flags", [["--lenient"], []], ids=["lenient", "strict"])
def test_delinearize_reads_a_pointer_longer_than_int_converts(flags, monkeypatch,
                                                              capsys):
    # int() refuses more than 4,300 digits by default; the pointer is still
    # one pointer, and its node is named by its digits
    digits = "1" * 5000
    payload = f"( <Z{digits}> boy )\n".encode()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload)))
    assert run(["delinearize", *flags, "-"]) == 0
    out = capsys.readouterr().out
    assert out == f"(z{digits} / boy)\n"
    assert parse_penman(out).graph.nodes == {f"z{digits}": "boy"}


# run in a fresh interpreter without site-packages (-S) or the environment
# (-I): every module an import or a command loads must be the standard
# library's or amrforge's own
STDLIB_ONLY = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import amrforge
for module in pkgutil.iter_modules(amrforge.__path__, "amrforge."):
    importlib.import_module(module.name)
from amrforge import cli
assert cli.run(["validate", sys.argv[2]]) == 0
foreign = sorted(
    name for name in sys.modules
    if name not in ("__main__", "__mp_main__")  # the script, and its alias
    and name.partition(".")[0] not in sys.stdlib_module_names | {"amrforge"}
)
assert not foreign, foreign
"""


def test_amrforge_needs_only_the_standard_library(tmp_path):
    path = tmp_path / "one.amr"
    path.write_text("(b / boy)\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", STDLIB_ONLY,
         str(Path(amrforge.__file__).parents[1]), str(path)],
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert json.loads(done.stdout)["diagnostics"] == []


# One line rule for every input: a line ends at "\n", and a "\r" before it
# is whitespace, in the CLI as in read_corpus


def _split_after_newlines(payload: bytes) -> list[str]:
    *ended, last = payload.decode("utf-8").removeprefix("\ufeff").split("\n")
    return [line + "\n" for line in ended] + ([last] if last else [])


def test_every_reader_splits_lines_alike(tmp_path, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # the breaks that str.splitlines or universal newlines would also take,
    # and a byte-order mark that only the first line loses
    pieces = st.sampled_from(
        ["a", " ", "é", "\n", "\r", "\r\n", "\x0c", "\x85", "\u2028", "\ufeff"])
    path = tmp_path / "lines.txt"

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.sampled_from(["", "\ufeff"]), st.lists(pieces, max_size=12))
    def check(prefix, drawn):
        payload = (prefix + "".join(drawn)).encode("utf-8")
        path.write_bytes(payload)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload)))
        reads = [
            list(lines(payload)), list(lines(io.BytesIO(payload))),
            list(lines(payload.decode("utf-8"))),
            list(_read_lines(str(path))), list(_read_lines("-")),
        ]
        assert reads == [_split_after_newlines(payload)] * len(reads)

    check()


def test_commands_drop_one_byte_order_mark_as_read_corpus_does(tmp_path, capsys):
    path = tmp_path / "two-marks.amr"
    path.write_bytes(b"\xef\xbb\xbf" * 2 + b"(b / boy)\n")
    [document] = read_corpus(path.read_bytes(), strict=False)
    assert run(["validate", str(path)]) == 1
    diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [d["message"] for d in diagnostics] == [
        d.message for d in document.diagnostics] == [
        "unexpected token '\\ufeff' (line 1, column 1)"]


def test_lone_carriage_return_does_not_end_a_token_line(monkeypatch, capsys):
    payload = b"( <Z0> boy )\r( <Z0> girl )\n( <Z0> dog )\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(payload)))
    assert run(["delinearize", "--lenient", "-"]) == 0
    documents = read_corpus(capsys.readouterr().out)
    assert [d.graph.nodes for d in documents] == [{"z0": "boy"}, {"z0": "dog"}]


def test_cli_reads_a_carriage_return_the_library_writes(tmp_path, capsys):
    graph = parse_penman('(n / name :op1 "a\rb")').graph
    path = tmp_path / "quoted.amr"
    path.write_bytes(f"{graph_to_penman(graph)}\n".encode("utf-8"))
    [document] = read_corpus(path.read_bytes())
    assert document.graph.attributes == (("n", ":op1", '"a\rb"'),)
    assert run(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"] == []
    assert run(["smatch", str(path), str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["smatch"]["f1"] == 1.0


def test_read_corpus_reads_an_opened_file_by_the_line_rule(tmp_path):
    # a text stream arrives split by its newline mode, which by default
    # also ends a line at a lone "\r": open in binary or with newline="\n"
    graph = parse_penman('(n / name :op1 "a\rb")').graph
    path = tmp_path / "quoted.amr"
    path.write_bytes(f"{graph_to_penman(graph)}\n".encode("utf-8"))
    for stream in (open(path, "rb"), open(path, encoding="utf-8", newline="\n")):
        with stream:
            [document] = read_corpus(stream, strict=False)
            assert not stream.closed  # the caller's stream, closed by the caller
        assert document.diagnostics == ()
        assert document.graph.attributes == (("n", ":op1", '"a\rb"'),)


def test_metadata_of_a_crlf_line_reads_alike_in_library_and_cli(tmp_path, capsys):
    payload = b"# ::id a\r\n(a / b)\r\n"
    path = tmp_path / "crlf.amr"
    path.write_bytes(payload)
    assert run(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["id"] == "a"
    for stream in (payload, io.BytesIO(payload), payload.decode("utf-8")):
        [document] = read_corpus(stream)
        assert document.metadata == {"id": "a"}


def test_vocab_base_lines_are_stripped(corpus, tmp_path, monkeypatch, capsys):
    clean, padded = tmp_path / "clean.txt", tmp_path / "padded.txt"
    clean.write_bytes(b"(\n)\n<pad>\n")
    padded.write_bytes(b"  (  \r\n)\t\r\n \r\n\r\n <pad> \r\n")
    assert run(["vocab", str(corpus), "--base", str(clean)]) == 0
    expected = capsys.readouterr().out
    assert expected.splitlines()[:3] == ["(", ")", "<pad>"]
    assert run(["vocab", str(corpus), "--base", str(padded)]) == 0
    assert capsys.readouterr().out == expected
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(padded.read_bytes())))
    assert run(["vocab", str(corpus), "--base", "-"]) == 0
    assert capsys.readouterr().out == expected


@pytest.fixture(scope="module")
def lf_and_crlf(tmp_path_factory):
    """A seeded synth corpus, a second one to score against it, and the
    first one's token lines, each also with CRLF line ends."""
    rng = random.Random(19)
    root = tmp_path_factory.mktemp("line-ends")
    texts = {}
    for name in ("gold", "predicted"):
        texts[name] = "".join(
            f"# ::id {name}-{i}\n# ::snt {' '.join(synth.random_sentence(rng))}\n"
            f"{graph_to_penman(synth.random_graph(rng, 5, 30, 3, 0.2))}\n\n"
            for i in range(12)
        )
    texts["tokens"] = "".join(
        f"{' '.join(linearize(d.graph))}\n" for d in read_corpus(texts["gold"])
    )
    paths = {}
    for name, text in texts.items():
        for ending in ("\n", "\r\n"):
            path = root / f"{name}{len(ending)}.txt"
            path.write_bytes(text.replace("\n", ending).encode("utf-8"))
            paths[name, ending] = str(path)
    return paths


@pytest.mark.parametrize("command", [
    ["validate", "gold"], ["stats", "gold"], ["linearize", "gold"],
    ["corrupt", "gold", "--seed", "3"], ["build-tasks", "gold", "--seed", "3"],
    ["vocab", "gold"], ["smatch", "gold", "predicted", "--fine", "--seed", "3"],
    ["delinearize", "tokens", "--lenient"],
])
def test_crlf_copy_gives_the_same_output(command, lf_and_crlf, capsys):
    outputs = []
    for ending in ("\n", "\r\n"):
        argv = [lf_and_crlf.get((arg, ending), arg) for arg in command]
        outputs.append((run(argv), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][1]
