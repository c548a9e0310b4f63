"""Command-line interface binding ingestion, transformation, corpus
building and evaluation into reproducible pipelines.

Every command reads a document, runs one function on it and writes the
resulting lines before it reads the next; smatch and bleu, which write one
result per corpus, take in their whole input first, and vocab holds only
the symbol counts of the documents it has read.  The randomized commands
(corrupt, build-tasks, smatch) resolve one seed (flag, then the
AMRFORGE_SEED environment variable, then 0), echo it on standard error,
and derive all per-document randomness from it, so identical invocations
produce byte-identical outputs.  :func:`run` builds its argument parser
once per process, on its first call; a parse keeps nothing for the next.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import dataclasses
import functools
import json
import multiprocessing
import os
import sys
from collections import Counter
from collections.abc import Iterator

from . import tokens as tk
from ._files import lines, write
from .amr import AmrGraph, compute_stats
from .corrupt import CorruptionConfig, corrupt_graph, derive_rng
from .linearize import _walk, linearize_with_layout
from .metrics import (
    FINE_GRAINED_KEYS,
    aggregate,
    corpus_bleu_details,
    fine_grained,
    smatch,
)
from .penman import PenmanDocument, _render, empty_graph, read_corpus
from .tasks import (
    ALL_TAGS,
    FINETUNING_TAGS,
    PRETRAINING_TAGS,
    MaskSchedule,
    build_corpus,
    parse_tag,
    sample_to_json,
)
from .vocab import build_vocabulary, collect_symbols, save_vocabulary

ENV_SEED = "AMRFORGE_SEED"


def _read(path: str, strict: bool) -> Iterator[tuple[PenmanDocument, AmrGraph]]:
    """Each document of a corpus with the graph to use, read as it is
    consumed: the input stays open until the last one is taken.

    A strict read raises on the first unusable document.  In a lenient
    read, diagnostics mean an invalid graph, or a syntax error that
    already put the fallback in the graph's place: either way the
    fallback is the graph to use.
    """
    with _open(path) as handle:
        for d in read_corpus(handle, strict=strict):
            yield d, empty_graph() if d.diagnostics else d.graph


def _read_lines(path: str) -> Iterator[str]:
    # read as it is consumed, by the line rule of read_corpus
    with _open(path) as handle:
        yield from lines(handle)


def _open(path: str):
    # the bytes of a file, or of stdin, which is left open
    return contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb")


# one encoder for every row, which json.dumps(row, ensure_ascii=False) builds per call
_json = json.JSONEncoder(ensure_ascii=False).encode


def _seed(args) -> int:
    """The --seed flag, else $AMRFORGE_SEED, else 0, echoed on stderr."""
    seed = args.seed
    if seed is None:
        env = os.environ.get(ENV_SEED, "0")
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    print(f"amrforge: seed {seed}", file=sys.stderr)
    return seed


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _rate(text: str) -> float:
    with contextlib.suppress(ValueError):
        if 0.0 <= (rate := float(text)) <= 1.0:
            return rate
    raise argparse.ArgumentTypeError(f"must be a number within [0, 1], got {text!r}")


def _config_from(args, seed: int) -> CorruptionConfig:
    # the command's rate flags; a rate without one keeps its default
    rates = {k: v for k, v in vars(args).items() if k.endswith("_rate")}
    return CorruptionConfig(seed=seed, **rates)


def _document_text(document: PenmanDocument) -> list[str] | None:
    for key in ("tok", "snt"):
        if key in document.metadata:
            return document.metadata[key].split()
    return None  # build_sample decides which tasks need text


def _json_score(result) -> dict | None:
    if result is None:
        return None
    return {k: round(getattr(result, k), 6) for k in ("precision", "recall", "f1")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amrforge",
        description="AMR toolkit: graphs in, token sequences, task samples "
        "and metric reports out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, inputs=("input",), strict=True,
                seed=False):
        # every command takes --jobs, though only smatch reads it;
        # strict=None leaves out the mode flags
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for arg in inputs:
            p.add_argument(arg, help=f"{arg} file, or - for stdin")
        p.add_argument("-o", "--output", default="-",
                       help="output file, or - for stdout")
        p.add_argument("--jobs", type=_positive, default=1,
                       help="parallel workers where supported (smatch); "
                       "output order is always input order")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help=f"random seed (default: ${ENV_SEED} or 0)")
        if strict is not None:
            mode = p.add_mutually_exclusive_group()
            mode.add_argument("--strict", dest="strict", action="store_true")
            mode.add_argument("--lenient", dest="strict", action="store_false")
            p.set_defaults(strict=strict)
        return p

    command("validate", _cmd_validate,
            "report invariant violations per document", strict=None)
    command("stats", _cmd_stats,
            "per-graph size/depth/reentrancy rows plus a bucket summary")
    command("linearize", _cmd_linearize, "PENMAN corpus to token lines")
    command("delinearize", _cmd_delinearize, "token lines to PENMAN")

    corrupt = command("corrupt", _cmd_corrupt, "apply graph noise to a corpus",
                      seed=True)
    build = command("build-tasks", _cmd_build_tasks,
                    "emit task samples as JSON lines", seed=True)
    build.add_argument("--tasks", default="all",
                       help="comma-separated task names, or all (the six "
                       "pre-training tasks) / finetune / everything")
    build.add_argument("--T", dest="total_steps", type=_positive, default=100000,
                       help="total steps of the dynamic masking schedule")
    # corrupt masks only the graph; build-tasks masks its text as well
    graph_rates = ("node", "edge", "subgraph")
    for p, kinds in ((corrupt, graph_rates), (build, graph_rates + ("text",))):
        for kind in kinds:
            p.add_argument(f"--{kind}-rate", type=_rate,
                           default=getattr(CorruptionConfig, f"{kind}_rate"))

    vocab = command("vocab", _cmd_vocab, "build the extended symbol vocabulary")
    vocab.add_argument("--base", default=None,
                       help="file with base tokens, one per line, or - for "
                       "stdin (default: the two parentheses)")
    vocab.add_argument("--max-pointers", type=_positive, default=512)

    smatch_cmd = command("smatch", _cmd_smatch,
                         "score predicted graphs against gold",
                         inputs=("gold", "predicted"), strict=False, seed=True)
    smatch_cmd.add_argument("--restarts", type=_positive, default=4)
    smatch_cmd.add_argument("--fine", action="store_true",
                            help="also report fine-grained sub-metrics")

    command("bleu", _cmd_bleu, "corpus BLEU over whitespace tokens",
            inputs=("reference", "hypothesis"), strict=None)
    return parser


_parser = functools.cache(build_parser)  # every parse starts a new namespace


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exit_request:
        return int(exit_request.code or 0)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # The reader of stdout has stopped (`amrforge vocab ... | head`),
        # which is no failure.  Pointing stdout at the null device keeps
        # the flush at exit from raising again; closing it at exit, before
        # that flush, keeps it from being collected unclosed.
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        atexit.register(sys.stdout.close)
        return 0
    except (ValueError, OSError) as error:  # every amrforge error is a ValueError
        print(f"amrforge: error: {error}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


def _cmd_validate(args) -> int:
    flagged = 0

    def rows():
        nonlocal flagged
        for index, (document, _) in enumerate(_read(args.input, strict=False)):
            flagged += bool(document.diagnostics)
            yield _json({
                "index": index,
                "id": document.metadata.get("id"),
                "diagnostics": [
                    {"code": d.code, "message": d.message}
                    for d in document.diagnostics
                ],
            })

    write(args.output, rows())
    return 1 if flagged else 0


def _stats_rows(documents):
    buckets = {"size": Counter(), "depth": Counter(), "reentrancies": Counter()}
    for index, (document, graph) in enumerate(documents):
        if document.diagnostics:
            continue  # lenient mode: skip unusable documents
        stats = compute_stats(graph)
        buckets["size"][stats.size_bucket] += 1
        buckets["depth"][stats.depth_bucket] += 1
        buckets["reentrancies"][stats.reent_bucket] += 1
        yield _json({"index": index, "id": document.metadata.get("id")}
                    | dataclasses.asdict(stats))
    yield _json({"summary": buckets})


def _cmd_stats(args) -> int:
    write(args.output, _stats_rows(_read(args.input, args.strict)))
    return 0


def _cmd_linearize(args) -> int:
    documents = _read(args.input, args.strict)
    write(args.output, (tk.to_text(linearize_with_layout(graph)[0])
                        for _, graph in documents))
    return 0


def _penman_of_line(line: str, strict: bool) -> str:
    # one walk per line; lenient, it builds what delinearize(repair(toks))
    # would.  A repaired sequence is re-linearized, renumbering its pointers
    # in walk order; a line that is its graph's linearization is kept whole
    graph, fault = _walk(tk.from_text(line), keep=True)
    if strict and fault is not None:
        raise fault
    return _render(graph or empty_graph(), renumber=fault is not None)


def _cmd_delinearize(args) -> int:
    # line k is document k: a blank line is the empty sequence
    texts = (_penman_of_line(line, args.strict) for line in _read_lines(args.input))
    # a blank line between documents
    write(args.output, (("\n" if i else "") + text for i, text in enumerate(texts)))
    return 0


def _cmd_corrupt(args) -> int:
    seed = _seed(args)
    documents = _read(args.input, args.strict)
    config = _config_from(args, seed)
    write(args.output, (
        tk.to_text(corrupt_graph(graph, config, derive_rng(seed, index))[0])
        for index, (_, graph) in enumerate(documents)
    ))
    return 0


def _parse_task_set(names: str):
    group = {"all": PRETRAINING_TAGS, "finetune": FINETUNING_TAGS,
             "everything": ALL_TAGS}.get(names.strip().lower())
    parts = (part.strip() for part in names.split(","))
    return group or tuple(map(parse_tag, filter(None, parts)))


def _cmd_build_tasks(args) -> int:
    seed = _seed(args)
    tags = _parse_task_set(args.tasks)
    documents = _read(args.input, args.strict)
    pairs = ((_document_text(document), graph) for document, graph in documents)
    schedule = MaskSchedule(total_steps=args.total_steps)
    samples = build_corpus(pairs, schedule, _config_from(args, seed), tags)
    write(args.output, map(sample_to_json, samples))
    return 0


def _cmd_vocab(args) -> int:
    # each document's own graph counts, an invalid one included
    documents = _read(args.input, args.strict)
    inventory = collect_symbols(document for document, _ in documents)
    if args.base:  # a line is stripped only at its ends
        base = [line.strip() for line in _read_lines(args.base) if line.strip()]
    else:
        base = [tk.OPEN, tk.CLOSE]
    vocabulary = build_vocabulary(base, inventory, max_pointers=args.max_pointers)
    save_vocabulary(vocabulary, args.output)
    return 0


def _smatch_pair(payload):
    graph1, graph2, restarts, seed, fine = payload
    if fine:
        return fine_grained(graph1, graph2, restarts=restarts, seed=seed)
    return {"smatch": smatch(graph1, graph2, restarts=restarts, seed=seed)}


def _cmd_smatch(args) -> int:
    seed = _seed(args)
    # whole corpora: the pair counts must agree, and cap the workers
    gold = list(_read(args.gold, args.strict))
    predicted = list(_read(args.predicted, args.strict))
    if len(gold) != len(predicted):
        raise ValueError(f"gold has {len(gold)} documents, predicted has {len(predicted)}")
    payloads = [
        (pred_graph, gold_graph, args.restarts, seed, args.fine)
        for (_, gold_graph), (_, pred_graph) in zip(gold, predicted)
    ]
    workers = min(args.jobs, len(payloads))  # no idle workers
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            per_pair = pool.map(_smatch_pair, payloads)
    else:
        per_pair = [_smatch_pair(payload) for payload in payloads]

    keys = FINE_GRAINED_KEYS if args.fine else ("smatch",)
    report = {"seed": seed, "pairs": len(per_pair)}
    for key in keys:
        report[key] = _json_score(aggregate(result.get(key) for result in per_pair))
    write(args.output, [_json(report)])
    return 0


def _cmd_bleu(args) -> int:
    references = [line.split() for line in _read_lines(args.reference)]
    hypotheses = [line.split() for line in _read_lines(args.hypothesis)]
    details = corpus_bleu_details(hypotheses, references)
    write(args.output, [_json({
        "bleu": round(details.score, 6),
        "precisions": [round(p, 6) for p in details.precisions],
        "brevity_penalty": round(details.brevity_penalty, 6),
        "hypothesis_length": details.hypothesis_length,
        "reference_length": details.reference_length,
    })])
    return 0


if __name__ == "__main__":
    main()
