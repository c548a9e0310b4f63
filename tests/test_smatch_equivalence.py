"""Smatch results pinned to a golden fixture, and move gains checked
against a plain triple-overlap count.

``data/smatch_golden.json`` holds 30 gold/prediction pairs of 5-30 nodes.
Each prediction is its gold graph after seeded node, edge and sub-graph
masking and ``repair``, with some edge labels and senses swapped.  With
each pair the fixture stores the seeded ``fine_grained`` results
(matched and total counts, scores and the mapping) recorded with the
earlier ``Counter``-based move scoring, so the table-based search must
reproduce them exactly.  Three more pairs pin the order in which
``fine_grained`` draws from its generator: scoring ``srl`` before
``reentrancy`` changes their ``srl`` counts.  Regenerate it only when a
change of results is intended:

    PYTHONPATH=src python tests/test_smatch_equivalence.py --write
"""

from __future__ import annotations

import functools
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from amrforge import AmrGraph, fine_grained, smatch, synth, to_triples
from amrforge.corrupt import CorruptionConfig, corrupt_graph, derive_rng
from amrforge.linearize import delinearize, repair
from amrforge.metrics import TripleSet, _MatchContext, _no_wsd, _Position, _unlabeled

FIXTURE = Path(__file__).parent / "data" / "smatch_golden.json"
FIXTURE_SEED = 2203
PAIRS = 30
NOISE = (
    CorruptionConfig(node_rate=0.3, edge_rate=0.0, subgraph_rate=0.0),
    CorruptionConfig(node_rate=0.0, edge_rate=0.3, subgraph_rate=0.0),
    CorruptionConfig(node_rate=0.0, edge_rate=0.0, subgraph_rate=1.0),
    CorruptionConfig(node_rate=0.2, edge_rate=0.2, subgraph_rate=0.5),
)
# few labels, so multi-edges, label ties and reentrancies are common
RELATIONS = (":ARG0", ":ARG1", ":mod", ":op1", ":name")
# pairs of two-concept graphs on which the sub-metrics' draw order shows,
# found by scoring 400 such pairs both ways
DRAW_ORDER_SEED = 4409
DRAW_ORDER_PAIRS = (1, 227, 316)


def _fixture_pairs(count: int = PAIRS):
    rng = random.Random(FIXTURE_SEED)
    for index in range(count):
        size = 5 + index * 25 // (count - 1)
        gold = synth.random_graph(
            rng, size, size, max_reentrancies=size // 4, attribute_prob=0.2,
            relations=RELATIONS,
        )
        noisy, _ = corrupt_graph(
            gold, NOISE[index % len(NOISE)], derive_rng(FIXTURE_SEED, index)
        )
        predicted = _relabel(
            delinearize(repair(noisy)), derive_rng(FIXTURE_SEED + 1, index)
        )
        yield predicted, gold, (2, 4, 5)[index % 3], index


def _draw_order_pairs():
    noise = CorruptionConfig(node_rate=0.3, edge_rate=0.3, subgraph_rate=0.0)
    for index in DRAW_ORDER_PAIRS:
        rng = random.Random(DRAW_ORDER_SEED * 1000 + index)
        gold = synth.random_graph(
            rng, 8, 30, max_reentrancies=6, concepts=("a", "b"),
            relations=RELATIONS[:3],
        )
        noisy, _ = corrupt_graph(gold, noise, derive_rng(DRAW_ORDER_SEED, index))
        yield delinearize(repair(noisy)), gold, 5, index


def _relabel(graph: AmrGraph, rng: random.Random, rate: float = 0.2) -> AmrGraph:
    """Swap some edge labels and concept senses, so the unlabeled and
    no-WSD variants score differently from Smatch."""
    edges = set(graph.edges)
    for source, label, target in graph.edges:
        if rng.random() < rate:
            changed = (source, rng.choice(RELATIONS), target)
            if changed not in edges:
                edges.discard((source, label, target))
                edges.add(changed)
    nodes = {
        node: re.sub(r"-0\d$", rng.choice(("-01", "-02")), concept)
        if rng.random() < rate else concept
        for node, concept in graph.nodes.items()
    }
    return AmrGraph(
        nodes=nodes,
        edges=tuple(sorted(edges, key=lambda edge: (edge[0], edge[2], edge[1]))),
        attributes=graph.attributes,
        root=graph.root,
    )


def _graph_json(graph: AmrGraph) -> dict:
    return {
        "nodes": [list(item) for item in graph.nodes.items()],
        "edges": [list(edge) for edge in graph.edges],
        "attributes": [list(attribute) for attribute in graph.attributes],
        "root": graph.root,
    }


def _graph_from_json(data: dict) -> AmrGraph:
    return AmrGraph(
        nodes=dict(data["nodes"]),
        edges=tuple(map(tuple, data["edges"])),
        attributes=tuple(map(tuple, data["attributes"])),
        root=data["root"],
    )


def _result_json(result) -> dict | None:
    if result is None:
        return None
    return {
        "matched": result.matched,
        "left_total": result.left_total,
        "right_total": result.right_total,
        "precision": result.precision,
        "recall": result.recall,
        "f1": result.f1,
        "mapping": [list(item) for item in result.mapping.items()],
    }


def _scores_json(scores) -> dict:
    return {key: _result_json(result) for key, result in scores.items()}


def _write_fixture() -> None:
    cases = []
    for left, right, restarts, seed in (*_fixture_pairs(), *_draw_order_pairs()):
        cases.append({
            "left": _graph_json(left),
            "right": _graph_json(right),
            "restarts": restarts,
            "seed": seed,
            "fine_grained": _scores_json(
                fine_grained(left, right, restarts=restarts, seed=seed)
            ),
        })
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")


@functools.cache
def _golden_cases():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("index", range(PAIRS + len(DRAW_ORDER_PAIRS)))
def test_seeded_results_match_golden_fixture(index):
    case = _golden_cases()[index]
    left, right = _graph_from_json(case["left"]), _graph_from_json(case["right"])
    restarts, seed = case["restarts"], case["seed"]
    scores = fine_grained(left, right, restarts=restarts, seed=seed)
    assert _scores_json(scores) == case["fine_grained"]
    base = smatch(left, right, restarts=restarts, seed=seed)
    assert _result_json(base) == case["fine_grained"]["smatch"]


def _reference_count(left: TripleSet, right: TripleSet, mapping) -> int:
    """Matched triples under ``mapping`` by plain multiset overlap."""

    def forms(triples: TripleSet, lookup) -> Counter:
        found = Counter()
        for kind, group in (("i", triples.instances), ("a", triples.attributes),
                            ("r", triples.relations)):
            for first, rel, third in group:
                found[kind, lookup(first), rel,
                      lookup(third) if kind == "r" else third] += 1
        return found

    target = forms(right, lambda v: v)
    return sum(
        min(count, target[form]) for form, count in forms(left, mapping.get).items()
    )


def _check_move_gains(left: TripleSet, right: TripleSet, rng, mappings: int = 3):
    context = _MatchContext(left, right)
    vars1, vars2 = context.vars1, context.vars2
    for _ in range(mappings):
        targets = list(vars2)
        targets += [None] * (max(len(vars1) - len(vars2), 0) + rng.randint(0, 2))
        rng.shuffle(targets)
        mapping = dict(zip(vars1, targets))
        before = _reference_count(left, right, mapping)
        images = context.images(mapping)
        assert context.count(images) == before
        position = _Position(context, images)
        best_gain, best = 0, None
        for gain, changes in position.moves():
            after = dict(mapping)
            for v, j in changes:
                after[vars1[v]] = None if j is None else vars2[j]
            mapped = [image for image in after.values() if image is not None]
            assert len(mapped) == len(set(mapped)), "move broke injectivity"
            assert gain == _reference_count(left, right, after) - before, changes
            if gain > best_gain:
                best_gain, best = gain, changes
        # the pooled search picks the first-best move of the full order
        assert position.best_move() == (best_gain, best)


@pytest.mark.parametrize("seed", range(40))
def test_move_gains_equal_reference_count_difference(seed):
    rng = random.Random(seed)
    concepts = ("want-01", "want-02", "boy", "girl", "name", "and")

    def graph():
        return to_triples(synth.random_graph(
            rng, 1, 9, max_reentrancies=3, attribute_prob=0.4,
            concepts=concepts, relations=RELATIONS,
        ))

    left, right = graph(), graph()
    for variant in (lambda t: t, _unlabeled, _no_wsd):
        _check_move_gains(variant(left), variant(right), rng)


def test_move_gains_with_duplicate_labels_and_self_loops():
    # a :ARG0 b and a :ARG1 b become two copies of (a, :label, b) when
    # unlabeled, competing for one right copy; self-loops are unary
    left = TripleSet(
        instances=(("a", "instance", "want-01"), ("b", "instance", "boy"),
                   ("c", "instance", "boy")),
        attributes=(("a", "TOP", "want-01"), ("b", ":polarity", "-")),
        relations=(("a", ":ARG0", "b"), ("a", ":ARG1", "b"), ("b", ":ARG0", "a"),
                   ("c", ":mod", "c"), ("a", ":ARG1", "c")),
    )
    right = TripleSet(
        instances=(("x", "instance", "want-01"), ("y", "instance", "boy"),
                   ("z", "instance", "girl")),
        attributes=(("x", "TOP", "want-01"), ("y", ":quant", "-")),
        relations=(("x", ":ARG0", "y"), ("y", ":mod", "y"), ("x", ":ARG1", "z"),
                   ("z", ":ARG0", "x")),
    )
    rng = random.Random(0)
    for variant in (lambda t: t, _unlabeled):
        _check_move_gains(variant(left), variant(right), rng, mappings=6)


def test_best_move_includes_swaps_that_only_reverse_an_edge():
    # neither variable can match anything alone, only the swapped pair can
    left = TripleSet(instances=(("a", "instance", "p"), ("b", "instance", "q")),
                     attributes=(), relations=(("a", ":ARG0", "b"),))
    right = TripleSet(instances=(("y", "instance", "r"), ("x", "instance", "s")),
                      attributes=(), relations=(("y", ":ARG0", "x"),))
    context = _MatchContext(left, right)
    position = _Position(context, context.images({"a": "x", "b": "y"}))
    assert position.best_move() == (1, ((0, 0), (1, 1)))
    _check_move_gains(left, right, random.Random(1))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_smatch_equivalence.py --write")
    _write_fixture()
