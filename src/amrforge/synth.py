"""Random graphs and sentences for tests, fuzzing and benchmarks."""

from __future__ import annotations

import random

from .amr import AmrGraph, _closure

CONCEPTS = (
    "want-01",
    "go-02",
    "see-01",
    "keep-02",
    "possible-01",
    "hard-02",
    "overcome-01",
    "boy",
    "girl",
    "dog",
    "city",
    "thing",
    "person",
    "name",
    "and",
    "contrast-01",
    "live-01",
    "strong-02",
)

RELATIONS = (
    ":ARG0",
    ":ARG1",
    ":ARG2",
    ":domain",
    ":mod",
    ":op1",
    ":op2",
    ":time",
    ":manner",
    ":purpose",
)

ATTRIBUTES = (
    (":polarity", "-"),
    (":quant", "3"),
    (":mode", "imperative"),
    (":wiki", '"Earth"'),
    (":op1", '"Fengzhu"'),
)

WORDS = (
    "the",
    "a",
    "boy",
    "girl",
    "dog",
    "city",
    "wants",
    "to",
    "go",
    "see",
    "not",
    "it",
    "is",
    "hard",
    "keep",
    "strong",
    "and",
    "on",
    "with",
    "life",
)


def random_graph(
    rng: random.Random,
    min_nodes: int = 1,
    max_nodes: int = 12,
    max_reentrancies: int = 0,
    attribute_prob: float = 0.0,
    concepts=CONCEPTS,
    relations=RELATIONS,
) -> AmrGraph:
    """A uniformly grown random tree plus optional reentrant edges.

    Always valid: connected, rooted at ``z0``, acyclic (candidate
    reentrant edges that would close a cycle are skipped).
    """
    count = rng.randint(min_nodes, max_nodes)
    ids = [f"z{i}" for i in range(count)]
    nodes = {node: rng.choice(concepts) for node in ids}
    edges: list[tuple[str, str, str]] = []
    children: dict[str, list[str]] = {node: [] for node in ids}
    for i in range(1, count):
        parent = ids[rng.randrange(i)]
        edges.append((parent, rng.choice(relations), ids[i]))
        children[parent].append(ids[i])

    added = 0
    attempts = 0
    edge_set = set(edges)
    while added < max_reentrancies and attempts < 10 * max_reentrancies + 10:
        attempts += 1
        if count < 2:
            break
        source, target = rng.sample(ids, 2)
        relation = rng.choice(relations)
        if (source, relation, target) in edge_set:
            continue
        if source in _closure({target}, children):
            continue  # target reaches source: the edge would close a cycle
        edges.append((source, relation, target))
        edge_set.add((source, relation, target))
        children[source].append(target)
        added += 1

    attributes: list[tuple[str, str, str]] = []
    for node in ids:
        if rng.random() < attribute_prob:
            rel, value = rng.choice(ATTRIBUTES)  # one draw per node: no duplicate
            attributes.append((node, rel, value))

    rng.shuffle(edges)
    return AmrGraph(
        nodes=nodes,
        edges=tuple(edges),
        attributes=tuple(attributes),
        root="z0",
    )


def random_sentence(rng: random.Random, min_len: int = 3, max_len: int = 20) -> list[str]:
    return [rng.choice(WORDS) for _ in range(rng.randint(min_len, max_len))]
