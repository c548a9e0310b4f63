"""Restore invariants of every corruption, on drawn graphs and rates.

``restore_tokens`` must give back the exact clean sequence, every masked
node must read ``[mask]`` where its concept was, and a removed sub-graph
must itself be a valid graph.  The span table of a linearization layout
must describe its tokens, before and after a sub-graph cut.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from amrforge import (
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
    removed = set()
    if record.removed_subgraph is not None:
        assert validate(record.removed_subgraph) == []
        removed = set(record.removed_subgraph.nodes)
    # pointers are never renumbered, so "( <Zk>" still opens the span of
    # the k-th node in the clean layout's pointer order
    _, layout = linearize_with_layout(graph)
    pointer_of = {node: pointer(k) for k, node in enumerate(layout.span)}
    opens = {toks[i + 1]: i for i, token in enumerate(toks) if token == OPEN}
    for node in record.masked_node_ids:
        # a mask applied before the sub-graph step may have been cut away
        if node in removed:
            continue
        assert toks[opens[pointer_of[node]] + 2] == MASK


@settings(max_examples=60, deadline=None)
@given(graphs(), configs(), seeds)
def test_corrupt_graph_restores(graph, config, seed):
    toks, record = corrupt_graph(graph, config, random.Random(seed))
    _check_graph_record(graph, toks, record)


@settings(max_examples=60, deadline=None)
@given(graphs(), configs(), seeds)
def test_mask_subgraph_restores(graph, config, seed):
    toks, record = mask_subgraph(graph, config, random.Random(seed))
    assert not record.masked_node_ids
    _check_graph_record(graph, toks, record)


@settings(max_examples=60, deadline=None)
@given(graphs(), configs(), seeds)
def test_mask_nodes_edges_restores(graph, config, seed):
    toks, record = mask_nodes_edges(graph, config, random.Random(seed))
    assert record.removed_subgraph is None
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
    assert all(toks[i] == MASK for i in record.masked_text_positions)


def _check_span_table(toks, layout):
    starts = [start for start, _ in layout.span.values()]
    assert starts == sorted(starts)  # keys in open-paren order
    for k, (start, close) in enumerate(layout.span.values()):
        assert toks[start] == OPEN and toks[close] == CLOSE
        # only the root span, the first, has no introducing relation
        assert (k == 0) == (start == 0)
        if k:
            assert is_relation(toks[start - 1])
    assert all(is_relation(toks[pos]) for pos in layout.edge_rel_pos.values())
    for pos, node in layout.ref_positions:
        assert is_pointer(toks[pos])
        assert toks[pos] == toks[layout.span[node][0] + 1]  # the node's own


@settings(max_examples=60, deadline=None)
@given(graphs(), seeds)
def test_span_table_before_and_after_a_cut(graph, seed):
    toks, layout = linearize_with_layout(graph)
    _check_span_table(toks, layout)
    for k, (start, _) in enumerate(layout.span.values()):
        assert toks[start + 1] == pointer(k)

    seen = []

    def recording(toks, layout, rng):
        seen.append((toks, layout))
        return toks, layout, ()

    cut, record = compose(graph, [subgraph_step(1.0), recording], random.Random(seed))
    assert seen[0][0] == cut
    _check_span_table(*seen[0])
    if record.removed_subgraph is not None:
        assert set(seen[0][1].span).isdisjoint(record.removed_subgraph.nodes)
