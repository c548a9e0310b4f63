"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import json
import random
import time
from collections import Counter

from amrforge import (
    AmrGraph,
    CorruptionConfig,
    MaskSchedule,
    compose,
    compute_stats,
    delinearize,
    fine_grained,
    is_isomorphic,
    linearize,
    node_edge_step,
    parse_penman,
    schedule_rate,
    serialize_penman,
    smatch,
    subgraph_step,
)
from amrforge.cli import run
from amrforge.penman import PenmanDocument
from amrforge.synth import random_graph, random_sentence
from amrforge.tasks import ALL_TAGS, TaskTag, build_sample
from amrforge.tokens import MASK, to_text

from conftest import GOLDEN_SEQUENCE, modal_graph, smatch_oracle


class _Timer:
    def __init__(self, name, limit_seconds):
        self.name = name
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.limit, (
                f"{self.name} took {elapsed:.1f}s (limit {self.limit}s)"
            )
            print(f"ACCEPTANCE PASS: {self.name} ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE FAIL: {self.name}")
        return False


def test_golden_linearization():
    with _Timer("golden linearization", 1.0):
        assert to_text(linearize(modal_graph())) == GOLDEN_SEQUENCE


def test_round_trip_suite():
    with _Timer("round-trip suite (1000 graphs)", 30.0):
        rng = random.Random(101)
        for _ in range(1000):
            graph = random_graph(
                rng, 1, 30, max_reentrancies=5, attribute_prob=0.25
            )
            assert is_isomorphic(delinearize(linearize(graph)), graph)
            text = serialize_penman(PenmanDocument(metadata={}, graph=graph))
            parsed = parse_penman(text).graph
            assert is_isomorphic(parsed, graph)
            again = parse_penman(
                serialize_penman(PenmanDocument(metadata={}, graph=parsed))
            ).graph
            assert is_isomorphic(again, parsed)


def test_corruption_statistics():
    with _Timer("corruption statistics (10000 graphs)", 60.0):
        rng = random.Random(202)
        config = CorruptionConfig()
        node_fraction = 0.0
        edge_fraction = 0.0
        subgraph_hits = 0
        runs = 10000
        for _ in range(runs):
            graph = random_graph(rng, 20, 32, max_reentrancies=3)
            _, edits = compose(graph, [node_edge_step(config.node_rate, config.edge_rate)],
                               rng)
            kinds = Counter(kind for kind, _, _ in edits)
            node_fraction += kinds["node"] / len(graph.nodes)
            edge_fraction += kinds["edge"] / len(graph.edges)
            _, sub_edits = compose(graph, [subgraph_step(config.subgraph_rate)], rng)
            subgraph_hits += 1 if sub_edits else 0
        assert abs(node_fraction / runs - 0.15) < 0.01
        assert abs(edge_fraction / runs - 0.15) < 0.01
        assert abs(subgraph_hits / runs - 0.35) < 0.02


def test_schedule_exactness():
    with _Timer("schedule exactness", 1.0):
        schedule = MaskSchedule(total_steps=100000)
        assert abs(schedule_rate(0, schedule) - 0.1) < 1e-12
        assert abs(schedule_rate(schedule.total_steps, schedule) - 0.85) < 1e-12
        step = schedule.total_steps // 102
        points = [
            schedule_rate(t, schedule)
            for t in range(0, 102 * step + 1, step)
        ]
        interior = points[1:-1]
        assert len(interior) >= 100
        seconds = [
            points[i + 1] - 2 * points[i] + points[i - 1]
            for i in range(1, len(points) - 1)
        ]
        assert max(abs(s) for s in seconds) < 1e-12


# each tag's (text segment, graph segment, target side), as the paper's
# eight layouts read: m = masked, e = empty, no mark = the plain sequence
EXPECTED_LAYOUTS = {
    TaskTag.MT_EG2T: ("masked", "empty", "text"),
    TaskTag.ET_MG2G: ("empty", "masked", "graph"),
    TaskTag.MT_G2T: ("masked", "plain", "text"),
    TaskTag.T_MG2G: ("plain", "masked", "graph"),
    TaskTag.MT_MG2T: ("masked", "masked", "text"),
    TaskTag.MT_MG2G: ("masked", "masked", "graph"),
    TaskTag.ET_G2T: ("empty", "plain", "text"),
    TaskTag.T_EG2G: ("plain", "empty", "graph"),
}


def test_sample_format_conformance():
    with _Timer("task layout conformance (8 tags)", 5.0):
        text = ["the", "boy", "can", "not", "go", "home", "today", "."]
        graph = modal_graph()
        schedule = MaskSchedule(total_steps=100)
        config = CorruptionConfig()
        clean = linearize(graph)
        for tag in ALL_TAGS:
            sample = build_sample(
                tag, text, graph, 50, schedule, config, random.Random(7)
            )
            toks = list(sample.input)
            assert toks[0] == "<s>" and toks[-1] == "</g>"
            split = toks.index("</s>")
            assert toks[split + 1] == "<g>"
            text_part = toks[1:split]
            graph_part = toks[split + 2 : -1]
            text_mode, graph_mode, target = EXPECTED_LAYOUTS[tag]
            if text_mode == "plain":
                assert text_part == text
            elif text_mode == "empty":
                assert text_part == [MASK]
            else:
                assert len(text_part) == len(text)
                assert MASK in text_part
                assert all(a == b for a, b in zip(text_part, text) if a != MASK)
            if graph_mode == "plain":
                assert graph_part == clean
            elif graph_mode == "empty":
                assert graph_part == [MASK]
            else:
                assert graph_part != clean or MASK in graph_part
            assert MASK not in sample.output
            if target == "text":
                assert sample.output == ("<s>", *text, "</s>")
            else:
                assert sample.output[0] == "<g>" and sample.output[-1] == "</g>"
                assert is_isomorphic(
                    delinearize(list(sample.output[1:-1])), graph
                )


def test_smatch_oracle_agreement():
    with _Timer("smatch oracle agreement (500 pairs)", 120.0):
        rng = random.Random(303)
        concepts = ("want-01", "go-01", "see-01", "boy", "girl", "dog")
        relations = (":ARG0", ":ARG1", ":mod")
        agree = 0
        pairs = 500
        for _ in range(pairs):
            left = random_graph(rng, 2, 6, max_reentrancies=1,
                                concepts=concepts, relations=relations)
            right = random_graph(rng, 2, 6, max_reentrancies=1,
                                 concepts=concepts, relations=relations)
            assert smatch(left, left, restarts=8).f1 == 1.0
            approx = smatch(left, right, restarts=8)
            exact = smatch_oracle(left, right)
            assert approx.matched <= exact.matched
            if approx.f1 == exact.f1:
                agree += 1
        assert agree / pairs >= 0.99, f"agreement {agree}/{pairs}"


def test_smatch_hand_derived_value():
    with _Timer("hand-derived smatch value", 1.0):
        left = parse_penman("(w / want-01 :ARG0 (b / boy))").graph
        right = parse_penman("(w / want-01 :ARG0 (g / girl))").graph
        assert smatch(left, right).f1 == 0.75


def test_submetric_dominance():
    with _Timer("sub-metric dominance (200 pairs)", 60.0):
        rng = random.Random(404)
        concepts = ("want-01", "want-02", "go-01", "boy", "girl", "and")
        relations = (":ARG0", ":ARG1", ":mod", ":time")
        for _ in range(200):
            left = random_graph(rng, 2, 8, max_reentrancies=1,
                                concepts=concepts, relations=relations)
            right = random_graph(rng, 2, 8, max_reentrancies=1,
                                 concepts=concepts, relations=relations)
            scores = fine_grained(left, right)
            assert scores["unlabeled"].f1 >= scores["smatch"].f1
            assert scores["no_wsd"].f1 >= scores["smatch"].f1


def _star(count):
    nodes = {"z0": "hub"}
    edges = []
    for i in range(1, count):
        nodes[f"z{i}"] = "spoke"
        edges.append(("z0", ":mod", f"z{i}"))
    return AmrGraph(nodes=nodes, edges=tuple(edges), root="z0")


def _chain(depth):
    nodes = {"z0": "c"}
    edges = []
    for i in range(1, depth + 1):
        nodes[f"z{i}"] = "c"
        edges.append((f"z{i-1}", ":mod", f"z{i}"))
    return AmrGraph(nodes=nodes, edges=tuple(edges), root="z0")


def _with_reentrancies(count):
    nodes = {"z0": "root", "a": "mid"}
    edges = [("z0", ":ARG0", "a")]
    for i in range(count):
        target = f"t{i}"
        nodes[target] = "leaf"
        edges.append(("z0", f":op{i + 1}", target))
        edges.append(("a", f":op{i + 1}", target))
    return AmrGraph(nodes=nodes, edges=tuple(edges), root="z0")


def test_stats_bucketing():
    with _Timer("stats bucket boundaries", 5.0):
        assert compute_stats(_star(10)).size_bucket == "1-10"
        assert compute_stats(_star(11)).size_bucket == "11-20"
        assert compute_stats(_star(21)).size_bucket == ">20"
        assert compute_stats(_chain(3)).depth_bucket == "1-3"
        assert compute_stats(_chain(4)).depth_bucket == "4-6"
        assert compute_stats(_chain(7)).depth_bucket == ">6"
        for count, bucket in ((0, "0"), (1, "1-3"), (4, ">3")):
            graph = _with_reentrancies(count)
            stats = compute_stats(graph)
            assert stats.reentrancies == count
            assert stats.reent_bucket == bucket


def test_build_tasks_determinism(tmp_path):
    with _Timer("build-tasks determinism (100 pairs)", 10.0):
        rng = random.Random(505)
        blocks = []
        for i in range(100):
            graph = random_graph(rng, 2, 18, max_reentrancies=3,
                                 attribute_prob=0.2)
            sentence = " ".join(random_sentence(rng, 4, 12))
            document = PenmanDocument(metadata={"id": f"d{i}", "snt": sentence},
                                      graph=graph)
            blocks.append(serialize_penman(document))
        corpus = tmp_path / "corpus.amr"
        corpus.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")

        outputs = [tmp_path / f"run{i}.jsonl" for i in range(3)]
        base = ["build-tasks", str(corpus), "--tasks", "all", "--T", "100000"]
        assert run(base + ["--seed", "7", "-o", str(outputs[0])]) == 0
        assert run(base + ["--seed", "7", "-o", str(outputs[1])]) == 0
        assert run(base + ["--seed", "8", "-o", str(outputs[2])]) == 0
        first = outputs[0].read_bytes()
        assert first == outputs[1].read_bytes()
        assert first != outputs[2].read_bytes()
        lines = first.decode("utf-8").splitlines()
        assert len(lines) == 600  # 100 pairs x 6 pre-training tasks
        for line in lines[:50]:
            row = json.loads(line)
            assert row["input"][0] == "<s>" and row["input"][-1] == "</g>"
