"""Restore invariants of every corruption, on drawn graphs and rates.

``restore_tokens`` must give back the exact clean sequence, and every
edit must mask what its kind names in the clean layout: a concept, an
edge relation, or a whole non-root span with its relation.  The span
table of a linearization layout must describe its tokens, before and
after a sub-graph cut.  ``validate``
must accept exactly the graphs that a definition-by-DFS reference accepts.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from amrforge import (
    AmrGraph,
    CorruptionConfig,
    compose,
    corrupt_graph,
    linearize,
    mask_nodes_edges,
    mask_subgraph,
    mask_text,
    node_edge_step,
    restore_tokens,
    subgraph_step,
    validate,
)
from amrforge.linearize import linearize_with_layout
from amrforge.synth import random_graph, random_sentence
from amrforge.tokens import CLOSE, MASK, OPEN, is_pointer, is_relation, pointer

from conftest import replay_edits

rates = st.floats(min_value=0.0, max_value=1.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def graphs(draw):
    size = draw(st.integers(min_value=1, max_value=40))
    return random_graph(
        random.Random(draw(seeds)), size, size,
        max_reentrancies=draw(st.integers(min_value=0, max_value=4)),
        attribute_prob=draw(st.floats(min_value=0.0, max_value=0.5)),
    )


@st.composite
def configs(draw):
    return CorruptionConfig(node_rate=draw(rates), edge_rate=draw(rates),
                            subgraph_rate=draw(rates), text_rate=draw(rates))


def _check_graph_record(graph, toks, record):
    assert restore_tokens(toks, record) == linearize(graph)
    # replaying the edits checks each against the clean layout; a mask
    # applied before the sub-graph step may be cut away with its span
    assert replay_edits(graph, record.edits)[0] == toks


@settings(max_examples=60, deadline=None)
@given(graphs(), configs(), seeds)
def test_corrupt_graph_restores(graph, config, seed):
    toks, record = corrupt_graph(graph, config, random.Random(seed))
    _check_graph_record(graph, toks, record)


@settings(max_examples=60, deadline=None)
@given(graphs(), configs(), seeds)
def test_mask_subgraph_restores(graph, config, seed):
    toks, record = mask_subgraph(graph, config, random.Random(seed))
    assert [kind for kind, _, _ in record.edits] in ([], ["subgraph"])
    _check_graph_record(graph, toks, record)


@settings(max_examples=60, deadline=None)
@given(graphs(), configs(), seeds)
def test_mask_nodes_edges_restores(graph, config, seed):
    toks, record = mask_nodes_edges(graph, config, random.Random(seed))
    assert {kind for kind, _, _ in record.edits} <= {"node", "edge"}
    _check_graph_record(graph, toks, record)


@settings(max_examples=60, deadline=None)
@given(graphs(), rates, rates, rates, seeds)
def test_compose_in_reverse_order_restores(graph, node_rate, edge_rate,
                                           subgraph_rate, seed):
    steps = [node_edge_step(node_rate, edge_rate), subgraph_step(subgraph_rate)]
    toks, record = compose(graph, steps, random.Random(seed))
    _check_graph_record(graph, toks, record)


@settings(max_examples=60, deadline=None)
@given(seeds, rates, seeds)
def test_mask_text_restores(sentence_seed, rate, seed):
    sentence = random_sentence(random.Random(sentence_seed))
    toks, record = mask_text(sentence, rate, random.Random(seed))
    assert restore_tokens(toks, record) == sentence
    for kind, pos, original in record.edits:
        assert kind == "text" and toks[pos] == MASK and original == (sentence[pos],)


def _check_span_table(toks, layout, edge_count):
    starts = [start for start, _ in layout.span.values()]
    assert starts == sorted(starts)  # keys in open-paren order
    for k, (start, close) in enumerate(layout.span.values()):
        assert toks[start] == OPEN and toks[close] == CLOSE
        # only the root span, the first, has no introducing relation
        assert (k == 0) == (start == 0)
        if k:
            assert is_relation(toks[start - 1])
    relations = layout.edge_rel_pos
    assert all(a < b for a, b in zip(relations, relations[1:]))  # text order
    # edge relations only: each one has a node or a pointer as its target
    for pos in relations:
        assert is_relation(toks[pos])
        assert toks[pos + 1] == OPEN or is_pointer(toks[pos + 1])
    assert len(relations) == edge_count
    for pos, node in layout.ref_positions:
        assert is_pointer(toks[pos])
        assert toks[pos] == toks[layout.span[node][0] + 1]  # the node's own


@settings(max_examples=60, deadline=None)
@given(graphs(), seeds)
def test_span_table_before_and_after_a_cut(graph, seed):
    toks, layout = linearize_with_layout(graph)
    _check_span_table(toks, layout, len(graph.edges))
    for k, (start, _) in enumerate(layout.span.values()):
        assert toks[start + 1] == pointer(k)

    seen = []

    def recording(toks, layout, rng):
        seen.append((toks, layout))
        return toks, layout, ()

    cut, record = compose(graph, [subgraph_step(1.0), recording], random.Random(seed))
    assert seen[0][0] == cut
    # the nodes whose spans open inside the cut, if there was one
    removed = {node for _, start, original in record.edits
               for node, (o, _) in layout.span.items()
               if start <= o < start + len(original)}
    surviving = [e for e in graph.edges if e[0] not in removed and e[2] not in removed]
    _check_span_table(*seen[0], len(surviving))
    assert list(seen[0][1].span) == [n for n in layout.span if n not in removed]


# Symbol pools for drawn graphs: mostly usable, a few not (delimiters,
# a leading colon, a pointer-shaped concept, an unclosed quote)
GOOD_IDS = ("a", "b", "c", "d", "e", "f", "g", "h")
BAD_IDS = ("x y", ":i", "p(q", "")
GOOD_VALUES = ("boy", "go-02", '"New York"', "-", "3")
BAD_VALUES = ("go/02", "<Z1>", ":x", '"open', "a b")
GOOD_RELATIONS = (":r", ":s")
BAD_RELATIONS = ("r", ":a b", ":")


@st.composite
def edge_graphs(draw):
    """Up to 8 nodes, often joined by a tree, plus arbitrary extra edges
    and attributes: self-loops, 2-cycles, duplicates and unknown
    endpoints.  In one graph of four, a symbol may be unusable."""
    spoiled = draw(st.integers(0, 3)) == 0

    def symbol(good, bad):
        pool = bad if spoiled and draw(st.integers(0, 7)) == 0 else good
        return draw(st.sampled_from(pool))

    count = draw(st.integers(min_value=0, max_value=8))
    ids = list(dict.fromkeys(symbol(GOOD_IDS, BAD_IDS) for _ in range(count)))
    nodes = {n: symbol(GOOD_VALUES, BAD_VALUES) for n in ids}
    edges = []
    if draw(st.integers(0, 3)):  # a tree over the nodes, in drawn order
        for i in range(1, len(ids)):
            parent = ids[draw(st.integers(0, i - 1))]
            edges.append((parent, symbol(GOOD_RELATIONS, BAD_RELATIONS), ids[i]))
    endpoints = st.sampled_from(ids + ["ghost"]) if ids else st.just("ghost")
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(("forward", "forward", "any", "duplicate")))
        if kind == "duplicate" and edges:
            extra = draw(st.sampled_from(edges))
        elif kind == "forward" and len(ids) > 1:  # keeps the drawn order acyclic
            i = draw(st.integers(0, len(ids) - 2))
            extra = (ids[i], symbol(GOOD_RELATIONS, BAD_RELATIONS),
                     ids[draw(st.integers(i + 1, len(ids) - 1))])
        else:
            extra = (draw(endpoints), symbol(GOOD_RELATIONS, BAD_RELATIONS),
                     draw(endpoints))
        edges.insert(draw(st.integers(0, len(edges))), extra)
    attributes = [
        (draw(endpoints), symbol(GOOD_RELATIONS, BAD_RELATIONS),
         symbol(GOOD_VALUES, BAD_VALUES))
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    ]
    if attributes and not draw(st.integers(0, 3)):
        attributes.insert(0, attributes[-1])
    if ids and draw(st.integers(0, 3)):
        root = ids[0]
    else:
        root = draw(st.sampled_from(ids + ["missing"]))
    return AmrGraph(nodes=nodes, edges=edges, attributes=attributes, root=root)


def _plain(symbol):
    return bool(symbol) and not any(c.isspace() or c in '()/"' for c in symbol)


def _usable_value(value):
    if len(value) >= 2 and value[0] == value[-1] == '"':
        return '"' not in value[1:-1] and "\n" not in value
    pointer_shaped = (value.startswith("<Z") and value.endswith(">")
                      and value[2:-1].isdecimal())
    return _plain(value) and not value.startswith(":") and not pointer_shaped


def _reference_valid(graph):
    """Validity by definition: plain DFS reachability, no node reaching
    itself, and the endpoint, duplicate and symbol rules."""
    nodes, edges, attributes = graph.nodes, graph.edges, graph.attributes
    if graph.root not in nodes:
        return False
    if any(s not in nodes or t not in nodes for s, _, t in edges):
        return False
    if any(s not in nodes for s, _, _ in attributes):
        return False
    if len(set(edges)) < len(edges) or len(set(attributes)) < len(attributes):
        return False
    if not all(_plain(n) and not n.startswith(":") for n in nodes):
        return False
    values = list(nodes.values()) + [v for _, _, v in attributes]
    if not all(_usable_value(v) for v in values):
        return False
    relations = [r for _, r, _ in edges] + [r for _, r, _ in attributes]
    if not all(r.startswith(":") and _plain(r[1:]) for r in relations):
        return False

    def reached_from(start):  # by a path of one edge or more
        seen, stack = set(), [start]
        while stack:
            node = stack.pop()
            for s, _, t in edges:
                if s == node and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    from_root = reached_from(graph.root) | {graph.root}
    return (all(n in from_root for n in nodes)
            and not any(n in reached_from(n) for n in nodes))


@settings(max_examples=400, deadline=None)
@given(edge_graphs())
def test_validate_agrees_with_the_reference_definition(graph):
    diagnostics = validate(graph)
    assert (diagnostics == []) == _reference_valid(graph), diagnostics
