"""Restore invariants of every corruption, on drawn graphs and rates.

``restore_tokens`` must give back the exact clean sequence, and every
edit must mask what its kind names in the clean layout: a concept, an
edge relation, or a whole non-root span with its relation.  The span
table of a linearization layout must describe its tokens, before and
after a sub-graph cut.  ``validate``
must accept exactly the graphs that a definition-by-DFS reference accepts,
and each graph it accepts, with symbols drawn from the grammar's hard
characters, must read back from its token text and from its PENMAN text.
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
    delinearize,
    graph_to_penman,
    is_isomorphic,
    linearize,
    mask_nodes_edges,
    mask_subgraph,
    mask_text,
    node_edge_step,
    parse_penman,
    restore_tokens,
    subgraph_step,
    validate,
)
from amrforge.linearize import linearize_with_layout
from amrforge.synth import random_graph, random_sentence
from amrforge.tokens import (
    CLOSE, MASK, OPEN, from_text, is_pointer, is_relation, pointer, to_text,
)

from conftest import edge_relations, replay_edits

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


def _check_graph_record(graph, toks, edits):
    assert restore_tokens(toks, edits) == linearize(graph)
    # replaying the edits checks each against the clean layout; a mask
    # applied before the sub-graph step may be cut away with its span
    assert replay_edits(graph, edits)[0] == toks


@settings(max_examples=60, deadline=None)
@given(graphs(), configs(), seeds)
def test_corrupt_graph_restores(graph, config, seed):
    toks, edits = corrupt_graph(graph, config, random.Random(seed))
    _check_graph_record(graph, toks, edits)


@settings(max_examples=60, deadline=None)
@given(graphs(), configs(), seeds)
def test_mask_subgraph_restores(graph, config, seed):
    toks, edits = mask_subgraph(graph, config, random.Random(seed))
    assert [kind for kind, _, _ in edits] in ([], ["subgraph"])
    _check_graph_record(graph, toks, edits)


@settings(max_examples=60, deadline=None)
@given(graphs(), configs(), seeds)
def test_mask_nodes_edges_restores(graph, config, seed):
    toks, edits = mask_nodes_edges(graph, config, random.Random(seed))
    assert {kind for kind, _, _ in edits} <= {"node", "edge"}
    _check_graph_record(graph, toks, edits)


@settings(max_examples=60, deadline=None)
@given(graphs(), rates, rates, rates, seeds)
def test_compose_in_reverse_order_restores(graph, node_rate, edge_rate,
                                           subgraph_rate, seed):
    steps = [node_edge_step(node_rate, edge_rate), subgraph_step(subgraph_rate)]
    toks, edits = compose(graph, steps, random.Random(seed))
    _check_graph_record(graph, toks, edits)


@settings(max_examples=60, deadline=None)
@given(seeds, rates, seeds)
def test_mask_text_restores(sentence_seed, rate, seed):
    sentence = random_sentence(random.Random(sentence_seed))
    toks, edits = mask_text(sentence, rate, random.Random(seed))
    assert restore_tokens(toks, edits) == sentence
    for kind, pos, original in edits:
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
    # the edge relations are those before a non-root open or a bare
    # pointer, the rule node_edge_step reads the candidate edges by
    relations = edge_relations(toks)
    assert relations == sorted([start - 1 for start in starts[1:]]
                               + [pos - 1 for pos, _ in layout.ref_positions])
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

    cut, edits = compose(graph, [subgraph_step(1.0), recording], random.Random(seed))
    assert seen[0][0] == cut
    # the nodes whose spans open inside the cut, if there was one
    removed = {node for _, start, original in edits
               for node, (o, _) in layout.span.items()
               if start <= o < start + len(original)}
    surviving = [e for e in graph.edges if e[0] not in removed and e[2] not in removed]
    _check_span_table(*seen[0], len(surviving))
    assert list(seen[0][1].span) == [n for n in layout.span if n not in removed]


# Symbol pools for drawn graphs: mostly usable, a few not (delimiters,
# a leading colon, a pointer-shaped concept, an unclosed quote, a quote
# escaped by a backslash).  A good value may still name a node, or be
# named like a node that delinearize rebuilds.
GOOD_IDS = ("a", "b", "c", "d", "e", "f", "g", "h")
BAD_IDS = ("x y", ":i", "p(q", "")
GOOD_VALUES = ("boy", "go-02", '"New York"', "-", "3", '"a\\\\"', "a", "z1", "z5")
BAD_VALUES = ("go/02", "<Z1>", ":x", '"open', "a b", '"a\\"')
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


def _usable_quoted(body):
    # no quote or newline, and a backslash escapes the next character,
    # which may not be the closing quote
    escaped = False
    for char in body:
        if char in '"\n':
            return False
        escaped = not escaped and char == "\\"
    return not escaped


def _usable_value(value):
    if len(value) >= 2 and value[0] == value[-1] == '"':
        return _usable_quoted(value[1:-1])
    pointer_shaped = (value.startswith("<Z") and value.endswith(">")
                      and value[2:-1].isdecimal())
    return _plain(value) and not value.startswith(":") and not pointer_shaped


def _reference_valid(graph):
    """Validity by definition: plain DFS reachability, no node reaching
    itself, and the endpoint, duplicate and symbol rules, under which no
    constant names a node."""
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
    if any(v in nodes for _, _, v in attributes):
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


# Characters the symbol grammar treats specially, and a few it does not
HARD_CHARS = tuple(' \t\r\x0c\u2028\n"\\()/:<>~Zz0é名a')
# no whitespace, parentheses, slash or quote, and a colon only after the start
PLAIN_CHARS = tuple("abz09-~<>Zé名\\")
# the body of a quoted symbol: escape pairs, whitespace other than a
# newline, and rarely a quote, a newline or a lone backslash
QUOTED_CHARS = (tuple(" \t\r\x0c\u2028()/:<>~Z0é名a") + ("\\\\", "\\ ", "\\a")) * 4 \
    + ('"', "\n", "\\")


def _strings(pieces, min_size=0):
    return st.lists(st.sampled_from(pieces), min_size=min_size, max_size=5).map("".join)


PLAIN = st.tuples(st.sampled_from(PLAIN_CHARS), _strings(PLAIN_CHARS + (":",))).map("".join)
VALUES = st.one_of(PLAIN, _strings(QUOTED_CHARS).map(lambda body: f'"{body}"'))
ANY = st.one_of(_strings(HARD_CHARS), st.integers(0, 12).map(pointer))
# named like the nodes delinearize rebuilds, and a few not quite
NAMES = st.sampled_from(("z0", "z1", "z2", "zz0", "zz1", "z01"))


@st.composite
def symbol_graphs(draw):
    """Up to 5 nodes joined by a tree, perhaps one reentrancy, and up to 3
    attributes, whose constants may name a node or be named like the
    nodes delinearize rebuilds.  Symbols are drawn in the shapes the
    grammar allows, which still break it at times; in one graph of four,
    one symbol in eight is any string of the hard characters or a pointer
    token."""
    spoiled = draw(st.integers(0, 3)) == 0

    def symbol(shape):
        return draw(ANY if spoiled and draw(st.integers(0, 7)) == 0 else shape)

    ids = list(dict.fromkeys(symbol(st.one_of(PLAIN, NAMES))
                             for _ in range(draw(st.integers(1, 5)))))
    nodes = {n: symbol(VALUES) for n in ids}
    relation = PLAIN.map(lambda s: ":" + s)
    edges = [(ids[draw(st.integers(0, i - 1))], symbol(relation), ids[i])
             for i in range(1, len(ids))]
    if len(ids) > 2 and draw(st.booleans()):  # forward, so the graph stays acyclic
        i = draw(st.integers(0, len(ids) - 2))
        edges.append((ids[i], symbol(relation), ids[draw(st.integers(i + 1, len(ids) - 1))]))
    constants = st.one_of(VALUES, st.sampled_from(ids), NAMES)
    attributes = [(draw(st.sampled_from(ids)), symbol(relation), symbol(constants))
                  for _ in range(draw(st.integers(0, 3)))]
    return AmrGraph(nodes=nodes, edges=edges, attributes=attributes, root=ids[0])


@settings(max_examples=250, deadline=None)
@given(symbol_graphs())
def test_every_valid_graph_has_a_text_and_a_penman_form(graph):
    if validate(graph):
        return
    toks = linearize(graph)
    read = from_text(to_text(toks))
    assert read == toks
    rebuilt = delinearize(read)
    assert is_isomorphic(rebuilt, graph)
    # each PENMAN text, of linearize | delinearize as well, reads back
    for written in (graph, rebuilt):
        assert is_isomorphic(parse_penman(graph_to_penman(written)).graph, graph)


def _text_tokens(text):
    """The token text form by definition: split at whitespace, except
    that a usable quoted symbol that starts a token and ends at
    whitespace is one token."""
    tokens, start = [], 0
    while start < len(text):
        if text[start].isspace():
            start += 1
            continue
        end = start
        while end < len(text) and not text[end].isspace():
            end += 1
        close = text.find('"', start + 1)  # a usable body holds no quote
        after = text[close + 1:close + 2]  # "" at the end of the text
        if (text[start] == '"' and close != -1 and (after == "" or after.isspace())
                and _usable_quoted(text[start + 1:close])):
            end = close + 1
        tokens.append(text[start:end])
        start = end
    return tokens


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(HARD_CHARS + ("ab", '"a b"', "\\ ")), max_size=16)
       .map("".join))
def test_from_text_reads_as_the_token_pattern(text):
    # str.split stands in for the definition unless a quoted token holds whitespace
    assert from_text(text) == _text_tokens(text)
