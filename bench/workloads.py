"""The benchmark's workloads: seeded inputs, CLI commands, output checks.

Each workload writes its input files from a seed, names the amrforge CLI
commands that one pass runs over them, and checks a pass's outputs
document by document.  Graph sizes are spread evenly over the workload's
size band and shuffled by the seed, so runs with different seeds do the
same amount of work and their throughputs can be compared.
"""

from __future__ import annotations

import json
import random
import statistics
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from amrforge import synth
from amrforge.amr import is_isomorphic
from amrforge.corrupt import CorruptionConfig, corrupt_graph, derive_rng
from amrforge.linearize import delinearize, repair
from amrforge.penman import graph_to_penman, read_corpus

PRETRAINING_TASKS = ("mt_eg2t", "et_mg2g", "mt_g2t", "t_mg2g", "mt_mg2t", "mt_mg2g")
FINE_GRAINED_KEYS = (
    "smatch", "unlabeled", "no_wsd", "concepts", "wikification", "ner",
    "negation", "reentrancy", "srl",
)


@dataclass
class Inputs:
    """Per-document input sizes, recorded with every result."""

    nodes: list[int] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    words: list[int] = field(default_factory=list)
    reentrancies: list[int] = field(default_factory=list)

    def add(self, graph, words=()) -> None:
        self.nodes.append(len(graph.nodes))
        self.tokens.append(graph_tokens(graph))
        self.words.append(len(words))
        in_degree = Counter(t for _, _, t in graph.edges)
        self.reentrancies.append(sum(1 for count in in_degree.values() if count > 1))

    def summary(self) -> dict:
        out = {"documents": len(self.nodes)}
        for name in ("nodes", "tokens", "words", "reentrancies"):
            values = getattr(self, name)
            out[f"{name}_mean"] = statistics.fmean(values)
            out[f"{name}_max"] = max(values)
        out["reentrancies_total"] = sum(self.reentrancies)
        return out


def graph_tokens(graph) -> int:
    """Length of the graph's DFS linearization.

    Every node is written once as ``( <Zk> concept )``; every edge adds its
    relation, and a reentrant edge (one beyond the spanning tree's n - 1)
    also a pointer; every attribute adds its relation and value.
    """
    reentrant_edges = len(graph.edges) - (len(graph.nodes) - 1)
    return (4 * len(graph.nodes) + len(graph.edges) + reentrant_edges
            + 2 * len(graph.attributes))


def triple_count(graph) -> int:
    """Smatch triples of a graph: instances, attributes, relations and TOP."""
    return len(graph.nodes) + len(graph.attributes) + len(graph.edges) + 1


@dataclass
class Check:
    """Outcome of checking one pass's outputs."""

    documents: int
    failed: set[int] = field(default_factory=set)
    reasons: list[str] = field(default_factory=list)
    smatch_f1: float = 0.0

    def fail(self, index: int, reason: str) -> None:
        if index not in self.failed and len(self.reasons) < 5:
            self.reasons.append(f"document {index}: {reason}")
        self.failed.add(index)

    def fail_all(self, reason: str) -> None:
        self.reasons.append(reason)
        self.failed.update(range(self.documents))


def _sizes(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """``count`` graph sizes spread evenly over [low, high], in seeded order."""
    sizes = [low + (i * (high - low)) // max(count - 1, 1) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def _graph(rng, size, reentrancy_every, attribute_prob, relations=synth.RELATIONS):
    return synth.random_graph(
        rng, size, size,
        max_reentrancies=size // reentrancy_every,
        attribute_prob=attribute_prob,
        relations=relations,
    )


def _lines(path: Path) -> list[str]:
    if not path.exists():
        return []
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _documents(path: Path) -> list:
    """Lenient read: a malformed document carries diagnostics, the rest parse."""
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as handle:
        return list(read_corpus(handle, strict=False))


def _isomorphism_f1(pairs) -> float:
    """Corpus Smatch F1 of (output, source) graph pairs scored by
    isomorphism: an isomorphic pair matches all its triples, any other
    pair (already a failed document) is credited none."""
    matched = total = 0
    for output, source, isomorphic in pairs:
        total += triple_count(output) + triple_count(source)
        if isomorphic:
            matched += 2 * triple_count(source)
    return matched / total if total else 0.0


class PretrainSmall:
    """Pre-training data preparation: vocabulary plus six denoising tasks
    per 5-30-node sentence graph, with --T set to the corpus size so the
    dynamic masking rate sweeps its whole range in one pass."""

    name = "pretrain-small"
    documents = 750
    outputs = ("vocab.txt", "vocab.txt.partitions.json", "tasks.jsonl")

    def write_inputs(self, seed: int, workdir: Path, documents: int) -> Inputs:
        rng = random.Random(seed)
        inputs = Inputs()
        with open(workdir / "corpus.amr", "w", encoding="utf-8") as out:
            for index, size in enumerate(_sizes(rng, documents, 5, 30)):
                graph = _graph(rng, size, reentrancy_every=6, attribute_prob=0.1)
                words = synth.random_sentence(rng, size // 2 + 1, size + 4)
                inputs.add(graph, words)
                out.write(f"# ::id {index}\n# ::tok {' '.join(words)}\n"
                          f"{graph_to_penman(graph)}\n\n")
        return inputs

    def commands(self, seed: int, workdir: Path, documents: int) -> list[list[str]]:
        corpus = str(workdir / "corpus.amr")
        return [
            ["vocab", corpus, "-o", str(workdir / "vocab.txt"), "--jobs", "1"],
            ["build-tasks", corpus, "--tasks", "all", "--T", str(documents),
             "--seed", str(seed), "--jobs", "1", "-o", str(workdir / "tasks.jsonl")],
        ]

    def check(self, seed: int, workdir: Path, documents: int) -> Check:
        check = Check(documents)
        sources = _documents(workdir / "corpus.amr")
        vocabulary = set(_lines(workdir / "vocab.txt"))
        rows = _lines(workdir / "tasks.jsonl")
        per_task = len(PRETRAINING_TASKS)
        scored = []
        for index, source in enumerate(sources):
            graph = source.graph
            symbols = set(graph.nodes.values())
            symbols.update(r for _, r, _ in graph.edges + graph.attributes)
            if not symbols <= vocabulary:
                check.fail(index, f"vocabulary lacks {sorted(symbols - vocabulary)[:3]}")
            samples = rows[index * per_task:(index + 1) * per_task]
            if len(samples) < per_task:
                check.fail(index, f"{len(samples)} of {per_task} samples")
                continue
            try:
                samples = [json.loads(row) for row in samples]
            except ValueError as error:
                check.fail(index, f"unparseable sample: {error}")
                continue
            tasks = [str(s.get("task")) for s in samples]
            if sorted(tasks) != sorted(PRETRAINING_TASKS):
                check.fail(index, f"tasks {tasks}")
                continue
            if any(s.get("step") != index for s in samples):
                check.fail(index, "schedule step differs from the document index")
            text = ["<s>", *source.metadata["tok"].split(), "</s>"]
            graph_targets = set()
            for sample in samples:
                if sample["task"].endswith("2t"):
                    if sample.get("output") != text:
                        check.fail(index, f"{sample['task']} text target differs")
                else:
                    graph_targets.add(tuple(sample.get("output") or ()))
            for target in graph_targets:
                scored.append(self._check_graph_target(check, index, target, graph))
        check.smatch_f1 = _isomorphism_f1(p for p in scored if p is not None)
        return check

    @staticmethod
    def _check_graph_target(check, index, target, source):
        if target[:1] != ("<g>",) or target[-1:] != ("</g>",):
            check.fail(index, "graph target is not wrapped in <g> ... </g>")
            return None
        try:
            output = delinearize(list(target[1:-1]))
        except ValueError as error:
            check.fail(index, f"graph target does not delinearize: {error}")
            return None
        isomorphic = is_isomorphic(output, source)
        if not isomorphic:
            check.fail(index, "graph target is not isomorphic to the source")
        return output, source, isomorphic


class DocsLarge:
    """Document-sized 300-800-node graphs through linearize | delinearize
    and corrupt | delinearize --lenient, where the superlinear reachability
    in delinearize and the quadratic span eligibility in corrupt show."""

    name = "docs-large"
    documents = 32
    outputs = ("clean.txt", "clean.amr", "noisy.txt", "repaired.amr")

    def write_inputs(self, seed: int, workdir: Path, documents: int) -> Inputs:
        rng = random.Random(seed)
        inputs = Inputs()
        with open(workdir / "corpus.amr", "w", encoding="utf-8") as out:
            for index, size in enumerate(_sizes(rng, documents, 300, 800)):
                graph = _graph(rng, size, reentrancy_every=20, attribute_prob=0.05)
                inputs.add(graph)
                out.write(f"# ::id {index}\n{graph_to_penman(graph)}\n\n")
        return inputs

    def commands(self, seed: int, workdir: Path, documents: int) -> list[list[str]]:
        def path(name):
            return str(workdir / name)

        return [
            ["linearize", path("corpus.amr"), "-o", path("clean.txt"), "--jobs", "1"],
            ["delinearize", "--lenient", path("clean.txt"), "-o", path("clean.amr"),
             "--jobs", "1"],
            ["corrupt", path("corpus.amr"), "--seed", str(seed), "-o", path("noisy.txt"),
             "--jobs", "1"],
            ["delinearize", "--lenient", path("noisy.txt"), "-o", path("repaired.amr"),
             "--jobs", "1"],
        ]

    def check(self, seed: int, workdir: Path, documents: int) -> Check:
        check = Check(documents)
        sources = _documents(workdir / "corpus.amr")
        clean_lines = _lines(workdir / "clean.txt")
        noisy_lines = _lines(workdir / "noisy.txt")
        round_trip = _documents(workdir / "clean.amr")
        repaired = _documents(workdir / "repaired.amr")
        scored = []
        for index, source in enumerate(sources):
            if index >= len(clean_lines) or index >= len(noisy_lines):
                check.fail(index, "no token line")
            if index >= len(repaired) or repaired[index].diagnostics:
                check.fail(index, "lenient output does not parse strictly")
            if index >= len(round_trip) or round_trip[index].diagnostics:
                check.fail(index, "clean round trip does not parse strictly")
                continue
            output = round_trip[index].graph
            isomorphic = is_isomorphic(output, source.graph)
            if not isomorphic:
                check.fail(index, "clean round trip is not isomorphic to the source")
            scored.append((output, source.graph, isomorphic))
        check.smatch_f1 = _isomorphism_f1(scored)
        return check


class EvalSmall:
    """Parser evaluation: smatch --fine over 5-30-node gold/prediction
    pairs, then BLEU over the pairs' sentences.

    A prediction is its gold graph with 40% of the concepts masked (corpus
    F1 near 0.8), passed through repair.  Masked edges or sub-graphs would
    make repair prune whole subtrees, so a prediction's size, and with it
    the cost of the mapping search, would vary from seed to seed.
    ``--restarts 2`` keeps the two seeded climbs and drops the random ones,
    which double the cost and the run-to-run spread.
    """

    name = "eval-small"
    documents = 20
    outputs = ("smatch.json", "bleu.json")
    prediction_noise = CorruptionConfig(node_rate=0.4, edge_rate=0.0, subgraph_rate=0.0)

    def write_inputs(self, seed: int, workdir: Path, documents: int) -> Inputs:
        rng = random.Random(seed)
        inputs = Inputs()
        relations = synth.RELATIONS + (":name",)  # so the NER sub-metric has data
        with ExitStack() as stack:
            gold_out, pred_out, ref_out, hyp_out = (
                stack.enter_context(open(workdir / name, "w", encoding="utf-8"))
                for name in ("gold.amr", "pred.amr", "ref.txt", "hyp.txt")
            )
            for index, size in enumerate(_sizes(rng, documents, 5, 30)):
                gold = _graph(rng, size, reentrancy_every=6, attribute_prob=0.1,
                              relations=relations)
                noisy, _ = corrupt_graph(gold, self.prediction_noise, derive_rng(seed, index))
                predicted = delinearize(repair(noisy))
                words = synth.random_sentence(rng, size // 2 + 1, size + 4)
                hypothesis = [rng.choice(synth.WORDS) if rng.random() < 0.2 else w
                              for w in words]
                inputs.add(gold, words)
                gold_out.write(f"# ::id {index}\n{graph_to_penman(gold)}\n\n")
                pred_out.write(f"# ::id {index}\n{graph_to_penman(predicted)}\n\n")
                ref_out.write(" ".join(words) + "\n")
                hyp_out.write(" ".join(hypothesis) + "\n")
        return inputs

    def commands(self, seed: int, workdir: Path, documents: int) -> list[list[str]]:
        def path(name):
            return str(workdir / name)

        return [
            ["smatch", path("gold.amr"), path("pred.amr"), "--fine", "--restarts", "2",
             "--seed", str(seed), "--jobs", "1", "-o", path("smatch.json")],
            ["bleu", path("ref.txt"), path("hyp.txt"), "--jobs", "1",
             "-o", path("bleu.json")],
        ]

    def check(self, seed: int, workdir: Path, documents: int) -> Check:
        """Reports are corpus-level, so a defect in one fails every pair."""
        check = Check(documents)
        try:
            report = json.loads((workdir / "smatch.json").read_text(encoding="utf-8"))
            bleu = json.loads((workdir / "bleu.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            check.fail_all(f"unreadable report: {error}")
            return check
        if report.get("pairs") != documents:
            check.fail_all(f"smatch scored {report.get('pairs')} of {documents} pairs")
        for key in FINE_GRAINED_KEYS:
            score = report.get(key)
            if not isinstance(score, dict) or not 0.0 <= score.get("f1", -1.0) <= 1.0:
                check.fail_all(f"fine-grained {key!r} has no F1 in [0, 1]: {score!r}")
        words = [len(line.split()) for line in
                 (workdir / "ref.txt").read_text(encoding="utf-8").splitlines()]
        hypotheses = [len(line.split()) for line in
                      (workdir / "hyp.txt").read_text(encoding="utf-8").splitlines()]
        if (not 0.0 <= bleu.get("bleu", -1.0) <= 1.0
                or bleu.get("reference_length") != sum(words)
                or bleu.get("hypothesis_length") != sum(hypotheses)):
            check.fail_all(f"bleu report does not cover the corpus: {bleu!r}")
        if isinstance(report.get("smatch"), dict):
            check.smatch_f1 = report["smatch"]["f1"]
        return check


WORKLOADS = {w.name: w for w in (PretrainSmall(), DocsLarge(), EvalSmall())}
