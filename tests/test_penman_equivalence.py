"""The PENMAN writer pinned to a golden fixture.

``data/penman_golden.json`` holds the ``graph_to_penman`` output for
seeded ``synth`` graphs of 1-800 nodes with reentrancies and attributes,
with node ids renamed for half of them so that ids and pointer indices
differ.  It also holds hand-made graphs whose quoted concepts and
constants contain spaces and parentheses, the ``serialize_penman`` output
of documents with metadata, and the error messages for invalid graphs.
The results were recorded with the earlier writer, which walked the graph
itself, so a writer that renders the linearization must reproduce them
exactly.  Regenerate the fixture only when a change of results is
intended:

    PYTHONPATH=src python tests/test_penman_equivalence.py --write
"""

from __future__ import annotations

import functools
import json
import random
import sys
from pathlib import Path

from amrforge import (
    AmrGraph, InvalidGraphError, PenmanDocument, graph_to_penman, parse_penman,
    serialize_penman, synth,
)

from conftest import rename_nodes

FIXTURE = Path(__file__).parent / "data" / "penman_golden.json"
FIXTURE_SEED = 5501
BANDS = (
    ((1, 40),) * 40 + ((80, 120),) * 6 + tuple((n, n) for n in (300, 480, 650, 800))
)

HAND_MADE = (
    '(c / city :name (n / name :op1 "New York" :op2 "a ) b" :op3 "(") :mod c2'
    ' :quant 3 :ARG0 (c2 / "quoted concept" :polarity -))',
    '(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b :op1 "x (y)")'
    ' :wiki "Some_Thing" :op1 "New York")',
    '(a / and :op1 k :op2 (k / keep-02 :ARG1 (s / "a ) b")))',
    "(x / [mask] :ARG0 (y / [mask] :ARG1 x2) :ARG1 (x2 / thing))",
)

METADATA = (
    {"id": "doc-1", "snt": "The city ( New York ) is big ."},
    {"id": "doc-2", "snt": "  two  spaces  kept ", "flag": ""},
    {},
)

INVALID = (
    AmrGraph(nodes={"a": "x", "b": "y"}, root="a"),
    AmrGraph(nodes={"a": "x", "b": "y"}, edges=(("a", ":ARG0", "b"),) * 2, root="a"),
    AmrGraph(nodes={"a": "x"}, attributes=(("a", ":op1", 'x"y'),), root="a"),
)


def _synth_graphs():
    rng = random.Random(FIXTURE_SEED)
    for index, (low, high) in enumerate(BANDS):
        graph = synth.random_graph(
            rng, low, high, max_reentrancies=rng.randint(0, max(1, high // 8)),
            attribute_prob=0.3,
        )
        if index % 2:
            ids = [f"v{i}" for i in range(len(graph.nodes))]
            rng.shuffle(ids)
            graph = rename_nodes(graph, dict(zip(graph.nodes, ids)))
        yield graph


def _hand_made_graphs():
    return [parse_penman(text).graph for text in HAND_MADE]


def _documents():
    graphs = _hand_made_graphs()
    return [PenmanDocument(metadata=metadata, graph=graph)
            for metadata in METADATA for graph in graphs]


def _refusal(graph) -> str:
    try:
        graph_to_penman(graph)
    except InvalidGraphError as error:
        return str(error)
    raise AssertionError("an invalid graph was written")


def _results() -> dict:
    return {
        "synth": [graph_to_penman(graph) for graph in _synth_graphs()],
        "hand_made": [graph_to_penman(graph) for graph in _hand_made_graphs()],
        "documents": [serialize_penman(document) for document in _documents()],
        "invalid": [_refusal(graph) for graph in INVALID],
    }


@functools.cache
def _golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_writer_output_matches_golden_fixture():
    got = _results()
    for key, expected in _golden().items():
        assert got[key] == expected, key


def test_serialize_refuses_invalid_graphs_with_the_same_message():
    for graph, message in zip(INVALID, _golden()["invalid"]):
        try:
            serialize_penman(PenmanDocument(metadata={"id": "x"}, graph=graph))
        except InvalidGraphError as error:
            assert str(error) == message
        else:
            raise AssertionError("an invalid graph was serialized")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_penman_equivalence.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_results(), indent=0) + "\n", encoding="utf-8")
