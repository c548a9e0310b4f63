"""Command-line interface binding ingestion, transformation, corpus
building and evaluation into reproducible pipelines.

Every randomized command resolves one seed (flag, then the AMRFORGE_SEED
environment variable, then 0), echoes it on standard error, and derives
all per-document randomness from it, so identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import atexit
import io
import json
import multiprocessing
import os
import sys
from collections import Counter
from contextlib import contextmanager

from . import tokens as tk
from .amr import InvalidGraphError, compute_stats
from .corrupt import CorruptionConfig, corrupt_graph, derive_rng
from .linearize import StructureError, _walk, delinearize, linearize
from .metrics import (
    FINE_GRAINED_KEYS,
    aggregate,
    corpus_bleu_details,
    fine_grained,
    smatch,
)
from .penman import (
    CorpusError,
    PenmanDocument,
    PenmanSyntaxError,
    _render,
    empty_graph,
    graph_to_penman,
    read_corpus,
)
from .tasks import (
    ALL_TAGS,
    FINETUNING_TAGS,
    PRETRAINING_TAGS,
    MaskSchedule,
    TaskError,
    build_corpus,
    parse_tag,
    sample_to_json,
)
from .vocab import build_vocabulary, collect_symbols, save_vocabulary

ENV_SEED = "AMRFORGE_SEED"


class CliError(ValueError):
    pass


@contextmanager
def _open_in(path: str):
    # utf-8-sig drops a leading byte-order mark, as some editors write one
    if path == "-":
        handle = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig")
        try:
            yield handle
        finally:
            handle.detach()  # leave stdin itself open
    else:
        with open(path, "r", encoding="utf-8-sig") as handle:
            yield handle


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    return 0


def _read_documents(path: str, strict: bool) -> list[PenmanDocument]:
    with _open_in(path) as handle:
        return list(read_corpus(handle, strict=strict))


def _config_from(args, seed: int) -> CorruptionConfig:
    return CorruptionConfig(
        node_rate=args.node_rate,
        edge_rate=args.edge_rate,
        subgraph_rate=args.subgraph_rate,
        text_rate=args.text_rate,
        seed=seed,
    )


def _document_text(document: PenmanDocument, index: int) -> list[str]:
    if "tok" in document.metadata:
        return document.metadata["tok"].split()
    if "snt" in document.metadata:
        return document.metadata["snt"].split()
    raise CliError(
        f"document {index} has neither '# ::tok' nor '# ::snt' metadata; "
        "pair text is required to build task samples"
    )


def _scored_graph(document: PenmanDocument, strict: bool):
    """The document's graph, or the fallback when it is unusable."""
    if not document.diagnostics:
        return document.graph
    if strict:
        raise CliError(
            "invalid document: " + "; ".join(d.message for d in document.diagnostics)
        )
    # in a lenient read, diagnostics mean an invalid graph, or a syntax
    # error that already put the fallback in the graph's place
    return empty_graph()


def _json_score(result) -> dict | None:
    if result is None:
        return None
    return {
        "precision": round(result.precision, 6),
        "recall": round(result.recall, 6),
        "f1": round(result.f1, 6),
    }


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="random seed "
                        f"(default: ${ENV_SEED} or 0)")
    common.add_argument("--jobs", type=int, default=1,
                        help="parallel workers where supported; output order "
                        "is always input order")

    parser = argparse.ArgumentParser(
        prog="amrforge",
        description="AMR toolkit: graphs in, token sequences, task samples "
        "and metric reports out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, strict=True):
        # each command owns its mode flags: set_defaults on flags shared
        # through a parent parser would change every command's default
        p = sub.add_parser(name, help=help_text, parents=[common])
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--strict", dest="strict", action="store_true")
        mode.add_argument("--lenient", dest="strict", action="store_false")
        p.set_defaults(strict=strict)
        return p

    def add_io(p, out_default="-"):
        p.add_argument("input", help="corpus file, or - for stdin")
        p.add_argument("-o", "--output", default=out_default,
                       help="output file, or - for stdout")

    add_io(command("validate", "report invariant violations per document"))
    add_io(command("stats", "per-graph size/depth/reentrancy rows plus a "
                            "bucket summary"))
    add_io(command("linearize", "PENMAN corpus to token lines"))
    add_io(command("delinearize", "token lines to PENMAN"))

    corrupt = command("corrupt", "apply graph noise to a corpus")
    add_io(corrupt)
    build = command("build-tasks", "emit task samples as JSON lines")
    add_io(build)
    build.add_argument("--tasks", default="all",
                       help="comma-separated task names, or all (the six "
                       "pre-training tasks) / finetune / everything")
    build.add_argument("--T", dest="total_steps", type=int, default=100000,
                       help="total steps of the dynamic masking schedule")
    for p in (corrupt, build):
        p.add_argument("--node-rate", type=float, default=0.15)
        p.add_argument("--edge-rate", type=float, default=0.15)
        p.add_argument("--subgraph-rate", type=float, default=0.35)
        p.add_argument("--text-rate", type=float, default=0.15)

    vocab = command("vocab", "build the extended symbol vocabulary")
    add_io(vocab)
    vocab.add_argument("--base", default=None,
                       help="file with base tokens, one per line "
                       "(default: the two parentheses)")
    vocab.add_argument("--max-pointers", type=int, default=512)

    smatch_cmd = command("smatch", "score predicted graphs against gold",
                         strict=False)
    smatch_cmd.add_argument("gold")
    smatch_cmd.add_argument("predicted")
    smatch_cmd.add_argument("-o", "--output", default="-")
    smatch_cmd.add_argument("--restarts", type=int, default=4)
    smatch_cmd.add_argument("--fine", action="store_true",
                            help="also report fine-grained sub-metrics")

    bleu = command("bleu", "corpus BLEU over whitespace tokens")
    bleu.add_argument("reference")
    bleu.add_argument("hypothesis")
    bleu.add_argument("-o", "--output", default="-")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        return int(exit_request.code or 0)
    try:
        seed = _resolve_seed(args)
        handler = _HANDLERS[args.command]
        return handler(args, seed)
    except BrokenPipeError:
        # The reader of stdout has stopped (`amrforge vocab ... | head`),
        # which is no failure.  Pointing stdout at the null device keeps
        # the flush at exit from raising again; closing it at exit, before
        # that flush, keeps it from being collected unclosed.
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        atexit.register(sys.stdout.close)
        return 0
    except (
        CliError,
        CorpusError,
        InvalidGraphError,
        PenmanSyntaxError,
        StructureError,
        TaskError,
        ValueError,
        OSError,
    ) as error:
        print(f"amrforge: error: {error}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


def _note_seed(seed: int) -> None:
    print(f"amrforge: seed {seed}", file=sys.stderr)


def _cmd_validate(args, seed: int) -> int:
    documents = _read_documents(args.input, strict=False)
    any_invalid = False
    with _open_out(args.output) as out:
        for index, document in enumerate(documents):
            diagnostics = document.diagnostics
            if diagnostics:
                any_invalid = True
            row = {
                "index": index,
                "id": document.metadata.get("id"),
                "diagnostics": [
                    {"code": d.code, "message": d.message} for d in diagnostics
                ],
            }
            print(json.dumps(row, ensure_ascii=False), file=out)
    return 1 if any_invalid else 0


def _cmd_stats(args, seed: int) -> int:
    documents = _read_documents(args.input, args.strict)
    buckets = {"size": Counter(), "depth": Counter(), "reentrancies": Counter()}
    with _open_out(args.output) as out:
        for index, document in enumerate(documents):
            if document.diagnostics:
                continue  # lenient mode: skip unusable documents
            stats = compute_stats(document.graph)
            row = {
                "index": index,
                "id": document.metadata.get("id"),
                "size": stats.size,
                "depth": stats.depth,
                "reentrancies": stats.reentrancies,
                "size_bucket": stats.size_bucket,
                "depth_bucket": stats.depth_bucket,
                "reent_bucket": stats.reent_bucket,
            }
            buckets["size"][stats.size_bucket] += 1
            buckets["depth"][stats.depth_bucket] += 1
            buckets["reentrancies"][stats.reent_bucket] += 1
            print(json.dumps(row, ensure_ascii=False), file=out)
        print(json.dumps({"summary": buckets}, ensure_ascii=False), file=out)
    return 0


def _cmd_linearize(args, seed: int) -> int:
    documents = _read_documents(args.input, args.strict)
    with _open_out(args.output) as out:
        for document in documents:
            graph = _scored_graph(document, args.strict)
            print(tk.to_text(linearize(graph)), file=out)
    return 0


def _cmd_delinearize(args, seed: int) -> int:
    with _open_in(args.input) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    texts = []
    for line in lines:
        toks = tk.from_text(line)
        if args.strict:
            texts.append(graph_to_penman(delinearize(toks)))
            continue
        # one walk per line: what delinearize(repair(toks)) would build
        graph, fault = _walk(toks)
        if graph is None:
            texts.append(graph_to_penman(empty_graph()))
        else:
            # a repaired sequence is re-linearized, which renumbers its
            # pointers in walk order
            texts.append(_render(graph, renumber=fault is not None))
    with _open_out(args.output) as out:
        for i, text in enumerate(texts):
            if i:
                print(file=out)
            print(text, file=out)
    return 0


def _cmd_corrupt(args, seed: int) -> int:
    _note_seed(seed)
    documents = _read_documents(args.input, args.strict)
    config = _config_from(args, seed)
    with _open_out(args.output) as out:
        for index, document in enumerate(documents):
            graph = _scored_graph(document, args.strict)
            toks, _ = corrupt_graph(graph, config, derive_rng(seed, index))
            print(tk.to_text(toks), file=out)
    return 0


def _parse_task_set(names: str):
    lowered = names.strip().lower()
    if lowered == "all":
        return PRETRAINING_TAGS
    if lowered in ("finetune", "fine-tune", "finetuning"):
        return FINETUNING_TAGS
    if lowered == "everything":
        return ALL_TAGS
    return tuple(parse_tag(part.strip()) for part in names.split(",") if part.strip())


def _cmd_build_tasks(args, seed: int) -> int:
    _note_seed(seed)
    documents = _read_documents(args.input, args.strict)
    tags = _parse_task_set(args.tasks)
    config = _config_from(args, seed)
    schedule = MaskSchedule(total_steps=args.total_steps)
    pairs = []
    for index, document in enumerate(documents):
        graph = _scored_graph(document, args.strict)
        pairs.append((_document_text(document, index), graph))
    with _open_out(args.output) as out:
        for sample in build_corpus(pairs, schedule, config, tags):
            print(sample_to_json(sample), file=out)
    return 0


def _cmd_vocab(args, seed: int) -> int:
    documents = _read_documents(args.input, args.strict)
    inventory = collect_symbols(documents)
    if args.base:
        with open(args.base, "r", encoding="utf-8-sig") as handle:
            base = [line.rstrip("\n") for line in handle if line.strip()]
    else:
        base = [tk.OPEN, tk.CLOSE]
    vocabulary = build_vocabulary(base, inventory, max_pointers=args.max_pointers)
    if args.output == "-":
        for token in vocabulary.token_of:
            print(token)
    else:
        save_vocabulary(vocabulary, args.output)
    return 0


def _smatch_pair(payload):
    graph1, graph2, restarts, seed, fine = payload
    if fine:
        return fine_grained(graph1, graph2, restarts=restarts, seed=seed)
    return {"smatch": smatch(graph1, graph2, restarts=restarts, seed=seed)}


def _cmd_smatch(args, seed: int) -> int:
    _note_seed(seed)
    gold_docs = _read_documents(args.gold, args.strict)
    pred_docs = _read_documents(args.predicted, args.strict)
    if len(gold_docs) != len(pred_docs):
        raise CliError(
            f"gold has {len(gold_docs)} documents, predicted has {len(pred_docs)}"
        )
    payloads = []
    for gold, predicted in zip(gold_docs, pred_docs):
        gold_graph = _scored_graph(gold, args.strict)
        pred_graph = _scored_graph(predicted, args.strict)
        payloads.append((pred_graph, gold_graph, args.restarts, seed, args.fine))
    if args.jobs > 1 and len(payloads) > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            per_pair = pool.map(_smatch_pair, payloads)
    else:
        per_pair = [_smatch_pair(payload) for payload in payloads]

    keys = FINE_GRAINED_KEYS if args.fine else ("smatch",)
    report = {"seed": seed, "pairs": len(per_pair)}
    for key in keys:
        report[key] = _json_score(
            aggregate(result.get(key) for result in per_pair)
        )
    with _open_out(args.output) as out:
        print(json.dumps(report, ensure_ascii=False), file=out)
    return 0


def _cmd_bleu(args, seed: int) -> int:
    with _open_in(args.reference) as handle:
        references = [line.split() for line in handle.read().splitlines()]
    with _open_in(args.hypothesis) as handle:
        hypotheses = [line.split() for line in handle.read().splitlines()]
    details = corpus_bleu_details(hypotheses, references)
    report = {
        "bleu": round(details.score, 6),
        "precisions": [round(p, 6) for p in details.precisions],
        "brevity_penalty": round(details.brevity_penalty, 6),
        "hypothesis_length": details.hypothesis_length,
        "reference_length": details.reference_length,
    }
    with _open_out(args.output) as out:
        print(json.dumps(report, ensure_ascii=False), file=out)
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "stats": _cmd_stats,
    "linearize": _cmd_linearize,
    "delinearize": _cmd_delinearize,
    "corrupt": _cmd_corrupt,
    "build-tasks": _cmd_build_tasks,
    "vocab": _cmd_vocab,
    "smatch": _cmd_smatch,
    "bleu": _cmd_bleu,
}


if __name__ == "__main__":
    main()
