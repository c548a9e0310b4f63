"""validate pinned to a golden fixture of broken graphs.

``data/validate_golden.json`` holds 240 seeded ``synth.random_graph``
graphs of 1-40 nodes (a few of up to 120), each broken by one to three
perturbations: an added back edge or self-loop, a removed tree edge
(leaving a part disconnected, or reachable only against the edges when a
reversed edge is added back), an edge or attribute with an unknown
endpoint, a duplicated edge or attribute, an unusable node id, concept,
relation or constant, and a missing root.  For each graph it stores the
graph itself and ``validate``'s ``(code, message)`` list.  The results
were recorded with the code that ran every structural walk on every
graph, so a validity check that walks only invalid graphs must reproduce
them exactly, order included.  Regenerate the fixture only when a change
of diagnostics is intended:

    PYTHONPATH=src python tests/test_validate_equivalence.py --write

The PENMAN reader marks a graph whose references all name closed nodes,
and validation skips the structural walk for it.  Hand cases and seeded
mutations of ``synth`` renderings that make references check that the
lenient reader's diagnostics are those of the full walk.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
import re
from collections import Counter
import sys
from pathlib import Path

import pytest

from amrforge import AmrGraph, graph_to_penman, parse_penman, synth, validate

FIXTURE = Path(__file__).parent / "data" / "validate_golden.json"
FIXTURE_SEED = 1414
GRAPHS = 240
CODES = (
    "missing-root", "dangling-edge", "dangling-attribute", "duplicate-edge",
    "duplicate-attribute", "bad-symbol", "disconnected", "unreachable", "cycle",
)
BAD_IDS = ("z 1", ":z", "z(1", 'z"', "", "a\tb")
BAD_CONCEPTS = ("go/02", "<Z3>", ":x", '"a"b"', "a b", "", "x)")
BAD_RELATIONS = ("ARG0", ":a b", ":", "", ":x(y")
BAD_CONSTANTS = ("a b", ":x", '"open', '"a\nb"', "<Z0>", "")


def _ancestors(graph: AmrGraph, node: str) -> list[str]:
    parents: dict[str, list[str]] = {}
    for s, _, t in graph.edges:
        parents.setdefault(t, []).append(s)
    seen, frontier = [], [node]
    while frontier:
        for parent in parents.get(frontier.pop(), ()):
            if parent not in seen:
                seen.append(parent)
                frontier.append(parent)
    return seen


def _perturb(graph: AmrGraph, rng: random.Random, kind: int) -> AmrGraph:
    nodes = dict(graph.nodes)
    edges = list(graph.edges)
    attributes = list(graph.attributes)
    root = graph.root
    ids = list(nodes)
    relation = rng.choice(synth.RELATIONS)
    if kind == 0:  # back edge to an ancestor, or a self-loop
        node = rng.choice(ids)
        above = _ancestors(graph, node)
        target = rng.choice(above) if above and rng.random() < 0.7 else node
        edges.insert(rng.randrange(len(edges) + 1), (node, relation, target))
    elif kind == 1 and edges:  # a removed edge, sometimes reversed
        s, r, t = edges.pop(rng.randrange(len(edges)))
        if rng.random() < 0.5:
            edges.insert(rng.randrange(len(edges) + 1), (t, r, s))
    elif kind == 2:  # an unknown endpoint
        node = rng.choice(ids)
        ghost = rng.choice(("ghost", "z999", "q"))
        choice = rng.randrange(3)
        if choice == 0:
            edges.append((node, relation, ghost))
        elif choice == 1:
            edges.insert(0, (ghost, relation, node))
        else:
            attributes.append((ghost, ":polarity", "-"))
    elif kind == 3:  # a duplicated triple
        if attributes and (not edges or rng.random() < 0.4):
            attributes.insert(rng.randrange(len(attributes) + 1),
                              rng.choice(attributes))
        elif edges:
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
    elif kind == 4:  # an unusable symbol
        choice = rng.randrange(4)
        if choice == 0:
            old, new = rng.choice(ids), rng.choice(BAD_IDS)
            if new not in nodes:
                nodes = {new if n == old else n: c for n, c in nodes.items()}
                edges = [(new if s == old else s, r, new if t == old else t)
                         for s, r, t in edges]
                attributes = [(new if s == old else s, r, v)
                              for s, r, v in attributes]
                root = new if root == old else root
        elif choice == 1:
            nodes[rng.choice(ids)] = rng.choice(BAD_CONCEPTS)
        elif choice == 2 and edges:
            i = rng.randrange(len(edges))
            s, _, t = edges[i]
            edges[i] = (s, rng.choice(BAD_RELATIONS), t)
        else:
            attributes.append((rng.choice(ids), rng.choice(("ARG0", ":mod")),
                               rng.choice(BAD_CONSTANTS)))
    elif kind == 5:  # a missing root
        root = rng.choice(("nowhere", "", "z999"))
    return AmrGraph(nodes=nodes, edges=tuple(edges),
                    attributes=tuple(attributes), root=root)


def _graphs(count: int = GRAPHS):
    rng = random.Random(FIXTURE_SEED)
    for index in range(count):
        low, high = (60, 120) if index % 40 == 39 else (1, 40)
        graph = synth.random_graph(
            rng, low, high, max_reentrancies=rng.randint(0, 6),
            attribute_prob=rng.choice((0.0, 0.2, 0.5)),
        )
        for _ in range(rng.randint(1, 3)):
            graph = _perturb(graph, rng, rng.randrange(6))
        yield graph


def _to_json(graph: AmrGraph) -> dict:
    return {
        "nodes": [list(item) for item in graph.nodes.items()],
        "edges": [list(e) for e in graph.edges],
        "attributes": [list(a) for a in graph.attributes],
        "root": graph.root,
    }


def _from_json(case: dict) -> AmrGraph:
    return AmrGraph(nodes=dict(case["nodes"]), edges=case["edges"],
                    attributes=case["attributes"], root=case["root"])


def _diagnostics(graph: AmrGraph) -> list[list[str]]:
    return [[d.code, d.message] for d in validate(graph)]


def _write_fixture() -> None:
    cases = [dict(_to_json(graph), diagnostics=_diagnostics(graph))
             for graph in _graphs()]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(cases, indent=0) + "\n", encoding="utf-8")


@functools.cache
def _golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_diagnostics_match_golden_fixture():
    mismatches = []
    for index, case in enumerate(_golden()):
        got = _diagnostics(_from_json(case))
        if got != case["diagnostics"]:
            mismatches.append((index, got, case["diagnostics"]))
    assert not mismatches, mismatches[:3]


def test_fixture_covers_every_diagnostic_code():
    codes = {code for case in _golden() for code, _ in case["diagnostics"]}
    assert codes == set(CODES)
    # many graphs have more than one fault, and a few perturbations
    # happen to leave a valid graph
    assert sum(len(case["diagnostics"]) > 1 for case in _golden()) > GRAPHS // 3
    assert any(not case["diagnostics"] for case in _golden())


# A graph parsed from PENMAN whose references all name closed nodes skips
# the structural walk; each text below must get the diagnostics of the
# full walk, which a graph rebuilt by dataclasses.replace takes.
REFERENCE_CASES = {
    "self-reference": "(a / x :mod a)",
    "reference to an open ancestor": "(a / x :ARG0 (b / y :ARG1 a))",
    "forward reference, valid": "(a / x :ARG0 b :ARG1 (b / y))",
    "forward reference, cycle": "(a / x :ARG0 (b / y :ARG1 c) :ARG1 (c / z :ARG2 b))",
    "closed reference, repeated": "(a / x :ARG0 (b / y) :ARG1 b :ARG1 b)",
    "closed reference, bad symbol": "(a / <Z3> :ARG0 (b / y) :ARG0 b)",
    "closed reference, repeated constant": "(a / x :ARG0 (b / y) :ARG1 b :mod - :mod -)",
}
# an inserted edge makes a self-reference, a reference to an ancestor, to
# a closed or to a later node, or an unusable constant, by where it lands;
# a replacing piece is a bare id, a repeated reference or a stray symbol
TARGETS = tuple(f"z{k}" for k in range(6)) + ("<Z3>",)
PIECES = TARGETS + (" :mod z1", " :ARG0 z0 :ARG0 z0", " :x", ")", "(", "")


def _agrees(document) -> bool:
    return list(document.diagnostics) == validate(dataclasses.replace(document.graph))


@pytest.mark.parametrize("text", REFERENCE_CASES.values(), ids=REFERENCE_CASES)
def test_penman_references_get_the_full_walks_diagnostics(text):
    assert _agrees(parse_penman(text, strict=False))


def _reference_mutant(rng: random.Random) -> str:
    """A ``synth`` rendering after one to three edits: a reference edge put
    before a ``)`` or a relation, a bare reference repeated, or up to three
    characters replaced by a piece."""
    graph = synth.random_graph(rng, 1, 12, max_reentrancies=2,
                               attribute_prob=0.3)
    text = graph_to_penman(graph)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind == 0:
            places = [m.start() for m in re.finditer(r"\)| :", text)]
            start = end = rng.choice(places or [len(text)])
            piece = f" {rng.choice((':ARG1', ':mod'))} {rng.choice(TARGETS)}"
        elif kind == 1 and (bare := re.findall(r" :\S+ z\d+(?=[ )])", text)):
            piece = rng.choice(bare)
            start = end = text.index(piece)
        else:
            start = rng.randrange(len(text) + 1)
            end = min(len(text), start + rng.randrange(4))
            piece = rng.choice(PIECES)
        text = text[:start] + piece + text[end:]
    return text


def test_fuzzed_penman_references_get_the_full_walks_diagnostics():
    rng = random.Random(39)
    outcomes, marked_codes = Counter(), Counter()
    for _ in range(3000):
        text = _reference_mutant(rng)
        try:
            document = parse_penman(text, strict=False)
        except ValueError:  # a syntax error: no graph to validate
            continue
        assert _agrees(document), text
        marked = document.graph._nested
        outcomes[marked, not document.diagnostics] += 1
        if marked:
            marked_codes.update(d.code for d in document.diagnostics)
    # each route meets valid and invalid graphs, and the short one meets
    # every kind of fault it can hold
    assert len(outcomes) == 4 and min(outcomes.values()) > 50, outcomes
    assert set(marked_codes) == {"duplicate-edge", "duplicate-attribute",
                                 "bad-symbol"}, marked_codes


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_validate_equivalence.py --write")
    _write_fixture()
