"""Shared graph fixtures and exact Smatch references used across the
test modules."""

import functools
import itertools
import random

import pytest

from amrforge import AmrGraph, amr
from amrforge._search import _applied, _MatchContext
from amrforge.corrupt import CorruptionConfig, corrupt_graph
from amrforge.linearize import delinearize, linearize_with_layout, repair
from amrforge.metrics import SmatchResult, TripleSet, to_triples
from amrforge.synth import RELATIONS, random_graph
from amrforge.tokens import MASK, OPEN, is_pointer, is_relation

GOLDEN_SEQUENCE = (
    "( <Z0> possible :domain ( <Z1> go :arg0 ( <Z2> boy ) ) "
    ":polarity ( <Z3> negative ) )"
)


def rename_nodes(graph: AmrGraph, mapping: dict[str, str]) -> AmrGraph:
    """Rebuild the graph with node ids renamed through ``mapping``."""
    missing = [n for n in graph.nodes if n not in mapping]
    if missing:
        raise ValueError(f"mapping does not cover nodes {missing}")
    if len(set(mapping[n] for n in graph.nodes)) != len(graph.nodes):
        raise ValueError("mapping is not injective")
    return AmrGraph(
        nodes={mapping[n]: c for n, c in graph.nodes.items()},
        edges=tuple((mapping[s], r, mapping[t]) for s, r, t in graph.edges),
        attributes=tuple((mapping[s], r, v) for s, r, v in graph.attributes),
        root=mapping[graph.root],
    )


def oracle_optimum(left: TripleSet, right: TripleSet) -> SmatchResult:
    """Globally optimal matched count by exhausting injective mappings.

    Only feasible for small graphs: the smaller variable set must have at
    most eight variables.
    """
    n1, n2 = len(left.instances), len(right.instances)
    if min(n1, n2) > 8:
        raise ValueError("oracle requires one side with at most 8 variables")
    context = _MatchContext(left, right)

    if n1 <= n2:
        candidates = itertools.permutations(range(n2), n1)
    else:
        candidates = (
            _applied([None] * n1, zip(sources, range(n2)))
            for sources in itertools.permutations(range(n1), n2)
        )
    best, best_images = -1, [None] * n1
    for images in candidates:
        score = context.count(images)
        if score > best:
            best, best_images = score, images
    return SmatchResult(best, left.total, right.total, context.mapping(best_images))


def smatch_oracle(graph1: AmrGraph, graph2: AmrGraph) -> SmatchResult:
    """The brute-force reference for ``smatch``: :func:`oracle_optimum`
    of the two graphs' triples."""
    return oracle_optimum(to_triples(graph1), to_triples(graph2))


def document_pair(rng: random.Random, min_nodes: int, max_nodes: int):
    """A ``(prediction, gold)`` pair for Smatch at document size, scored as
    ``smatch(prediction, gold)`` (the climb is not symmetric).  The gold
    graph is a :func:`random_graph` with ``max_nodes // 10`` reentrancies
    and attributes at rate 0.2, 40% of its concepts then set to ``dog``.
    The prediction sets 40% of the gold concepts to ``dog`` again, redraws
    20% of the edge labels unless that repeats an edge, and renames ``zK``
    to ``pK``."""
    graph = random_graph(rng, min_nodes, max_nodes, max_nodes // 10, 0.2)
    nodes = {n: "dog" if rng.random() < 0.4 else c for n, c in graph.nodes.items()}
    gold = AmrGraph(nodes, graph.edges, graph.attributes, graph.root)
    concepts = ["dog" if rng.random() < 0.4 else c for c in nodes.values()]
    edges, present = list(gold.edges), set(gold.edges)
    for i, (source, _, target) in enumerate(edges):
        if rng.random() < 0.2:
            edge = (source, rng.choice(RELATIONS), target)
            if edge not in present:
                present ^= {edges[i], edge}  # the old edge out, the new one in
                edges[i] = edge
    name = {n: "p" + n[1:] for n in nodes}
    return AmrGraph(
        dict(zip(name.values(), concepts)),
        tuple((name[s], r, name[t]) for s, r, t in edges),
        tuple((name[n], r, v) for n, r, v in gold.attributes), name[gold.root],
    ), gold


SENTENCE_NOISE = CorruptionConfig(node_rate=0.4, edge_rate=0.0, subgraph_rate=0.0)
QUOTED_NAMES = ('"New York"', '"Fengzhu Lake"', '"Ulan Bator"')


def document_from_sentences(rng: random.Random, sentences: int):
    """A ``(prediction, gold)`` pair of documents with coreference, scored
    as ``smatch(prediction, gold)``, built the way DocAMR joins sentence
    graphs (Naseem et al., NAACL 2022).

    Each side joins ``sentences`` sentence pairs under a ``multi-sentence``
    root by ``:snt1``, ``:snt2``, ..., each pair drawn as eval-small draws
    it: gold is a 5-30-node :func:`random_graph` with one reentrancy per
    six nodes, attributes at rate 0.1 and ``:name`` among the relations,
    and the prediction is gold after node masking at rate 0.4, repaired.
    A quarter of the sentences give a node a ``name`` whose ``:op1`` is a
    quoted name with a space, on both sides.  Gold then merges each of its
    nodes, with probability 0.5, into a node of its concept in an earlier
    sentence if there is one; the prediction keeps 70% of those merges,
    and merges each of its other nodes the same way, with probability 0.1
    and by its own concepts.  A merge that would close a cycle is skipped.
    The prediction's node ``n`` is named ``pn``.
    """
    relations = RELATIONS + (":name",)
    gold_side: tuple[dict, list] = ({"m": "multi-sentence"}, [])
    predicted_side: tuple[dict, list] = ({"m": "multi-sentence"}, [])
    sentence_of: dict[str, int] = {}  # the sentence of each node but the root
    for k in range(sentences):
        size = rng.randint(5, 30)
        gold = random_graph(rng, size, size, size // 6, 0.1, relations=relations)
        predicted = delinearize(repair(corrupt_graph(gold, SENTENCE_NOISE, rng)[0]))
        # node masking keeps the structure, so the prediction's k-th node
        # is the gold node whose pointer is <Zk>
        as_gold = dict(zip(predicted.nodes, linearize_with_layout(gold)[1].span))
        named = rng.choice(list(gold.nodes)) if rng.random() < 0.25 else None
        quoted = rng.choice(QUOTED_NAMES)
        for graph, gold_node, (nodes, triples) in (
            (gold, dict(zip(gold.nodes, gold.nodes)), gold_side),
            (predicted, as_gold, predicted_side),
        ):
            name = {n: f"s{k}{gold_node[n]}" for n in graph.nodes}
            nodes.update((name[n], concept) for n, concept in graph.nodes.items())
            triples.append(("m", f":snt{k + 1}", name[graph.root]))
            triples += [(name[s], r, name[t]) for s, r, t in graph.edges]
            triples += [(name[s], r, value) for s, r, value in graph.attributes]
            if named is not None:
                nodes[f"s{k}n"] = "name"
                triples += [(f"s{k}{named}", ":name", f"s{k}n"), (f"s{k}n", ":op1", quoted)]
        sentence_of.update((n, k) for n in gold_side[0] if n != "m" and n not in sentence_of)

    def merge_earlier(side, v: str) -> str | None:
        """Merge ``v`` into a node of its concept in an earlier sentence,
        drawn from ``rng``, unless that would close a cycle; that node."""
        nodes = side[0]
        earlier = [u for u in nodes if u != "m" and sentence_of[u] < sentence_of[v]
                   and nodes[u] == nodes[v]]
        return _merge(side, v, rng.choice(earlier)) if earlier else None

    merges = []  # gold's, each (merged node, the node it joined)
    for v in sentence_of:  # only a merge removes a node, and it removes v
        if rng.random() < 0.5 and (u := merge_earlier(gold_side, v)) is not None:
            merges.append((v, u))
    kept = {v for v, u in merges if rng.random() < 0.7 and _merge(predicted_side, v, u)}
    for v in sentence_of:
        if v in predicted_side[0] and v not in kept and rng.random() < 0.1:
            merge_earlier(predicted_side, v)

    def graph(side, name) -> AmrGraph:
        nodes, triples = side
        return AmrGraph(
            {name(n): concept for n, concept in nodes.items()},
            tuple((name(s), r, name(t)) for s, r, t in triples if t in nodes),
            tuple((name(s), r, t) for s, r, t in triples if t not in nodes),
            name("m"),
        )

    return graph(predicted_side, lambda n: f"p{n}"), graph(gold_side, str)


def _merge(side: tuple[dict, list], v: str, u: str) -> str | None:
    """Merge node ``v`` of ``side``'s nodes and triples into node ``u``,
    in place, unless one reaches the other, which would close a cycle.
    Returns ``u``, or ``None`` for a skipped merge."""
    nodes, triples = side
    children = {n: [] for n in nodes}
    for s, _, t in triples:
        if t in nodes:
            children[s].append(t)
    if u in amr._closure({v}, children) or v in amr._closure({u}, children):
        return None
    del nodes[v]
    triples[:] = dict.fromkeys(  # a merge can make two triples one
        (u if s == v else s, r, u if t == v else t) for s, r, t in triples)
    return u


@functools.cache
def seed_7_pair(nodes: int) -> tuple[AmrGraph, AmrGraph]:
    """The ``(prediction, gold)`` pair of :func:`document_pair` with
    exactly ``nodes`` gold nodes at seed 7, to be scored as
    ``smatch(prediction, gold)``."""
    return document_pair(random.Random(7), nodes, nodes)


def milp_optimum(left: TripleSet, right: TripleSet) -> int:
    """The most triples any injective mapping matches, from the Smatch ILP
    over the ``_MatchContext`` tables, solved by ``scipy.optimize.milp``.

    A binary ``x[v, j]`` for each ``unary`` or ``links`` entry places left
    variable ``v`` at right variable ``j``, and a continuous ``y`` for each
    ``links`` entry, at most both of its ``x``, earns that entry's weight.
    Each variable has at most one image and each target one preimage.
    Pairs without an entry are left out, since a variable placed there
    matches nothing.  Callers skip without scipy.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    context = _MatchContext(left, right)
    pairs = []
    for v, (unary, links) in enumerate(zip(context.unary, context.links)):
        pairs += [(v, j) for j in unary]
        pairs += [(v, j) for table in links.values() for row in table.values() for j in row]
    x = {pair: column for column, pair in enumerate(dict.fromkeys(pairs))}
    if not x:
        return 0
    gains = [context.unary[v].get(j, 0) for v, j in x]
    rows, upper = [], []  # each row maps column -> coefficient, row @ z <= upper
    for v, links in enumerate(context.links):
        for w, table in links.items():
            if v < w:
                for k, row in table.items():
                    for j, weight in row.items():
                        y = len(gains)
                        gains.append(weight)
                        rows += [{y: 1, x[v, j]: -1}, {y: 1, x[w, k]: -1}]
                        upper += [0, 0]
    for side in (0, 1):  # one image per variable, one preimage per target
        groups = {}
        for pair, column in x.items():
            groups.setdefault(pair[side], {})[column] = 1
        rows += groups.values()
        upper += [1] * len(groups)

    r, c, a = zip(*((r, c, a) for r, row in enumerate(rows) for c, a in row.items()))
    matrix = coo_array((a, (r, c)), shape=(len(rows), len(gains)))
    solved = milp(
        -np.array(gains, dtype=float),
        constraints=LinearConstraint(matrix, -np.inf, upper),
        integrality=[1] * len(x) + [0] * (len(gains) - len(x)),
        bounds=Bounds(0, 1),
    )
    assert solved.success, solved.message
    return round(-solved.fun)


def edge_relations(toks) -> list[int]:
    """The positions of a sequence's edge relations, read off its tokens:
    each is a relation whose next token is ``(`` or a pointer, so neither
    a relation masked in place nor one before a ``[mask]`` counts."""
    return [pos for pos, (token, after) in enumerate(zip(toks, toks[1:]))
            if is_relation(token) and (after == OPEN or is_pointer(after))]


def replay_edits(graph: AmrGraph, edits):
    """Apply a corruption's edits forward to the graph's linearization.

    Each edit must find its original tokens at its position and mask what
    its kind names in the clean layout: a concept (``"node"``), an edge
    relation (``"edge"``), or a non-root span with the relation before it
    (``"subgraph"``); a node or edge edit masks a token not masked yet.
    Returns the corrupted sequence and, per kind, the clean position
    range of each edit in order.
    """
    clean, layout = linearize_with_layout(graph)
    concepts = {o + 2 for o, _ in layout.span.values()}
    relations = set(edge_relations(clean))
    cut_end = {o - 1: c for o, c in list(layout.span.values())[1:]}
    toks = list(clean)
    origin: list[int | None] = list(range(len(clean)))  # clean position per token
    masked: dict[str, list[range]] = {"node": [], "edge": [], "subgraph": []}
    for kind, position, original in edits:
        end = position + len(original)
        assert 0 <= position < end <= len(toks)
        assert tuple(toks[position:end]) == original
        at = origin[position]
        if kind == "subgraph":
            assert cut_end[at] == origin[end - 1]
        else:
            assert original != (MASK,)
            assert at in (concepts if kind == "node" else relations)
        masked[kind].append(range(at, origin[end - 1] + 1))
        toks[position:end] = [MASK]
        if kind == "subgraph":  # masking in place moves no token
            origin[position:end] = [None]
    return toks, masked


def modal_graph() -> AmrGraph:
    """possible -> go -> boy, possible -> negative (a 4-node tree)."""
    return AmrGraph(
        nodes={"z0": "possible", "z1": "go", "z2": "boy", "z3": "negative"},
        edges=(
            ("z0", ":domain", "z1"),
            ("z0", ":polarity", "z3"),
            ("z1", ":arg0", "z2"),
        ),
        root="z0",
    )


CONTRAST_TEXT = """\
(c / contrast-01
    :ARG1 (a / addictive-02
        :ARG0 (h / harm-01
            :ARG1 (s / self)))
    :ARG2 (p / possible-01
        :ARG1 (o / overcome-01
            :ARG0 (y / you)
            :ARG1 h)))"""


def contrast_graph() -> AmrGraph:
    """An 8-node graph with one reentrancy: h has two parents."""
    return AmrGraph(
        nodes={
            "c": "contrast-01",
            "a": "addictive-02",
            "h": "harm-01",
            "s": "self",
            "p": "possible-01",
            "o": "overcome-01",
            "y": "you",
        },
        edges=(
            ("c", ":ARG1", "a"),
            ("c", ":ARG2", "p"),
            ("a", ":ARG0", "h"),
            ("h", ":ARG1", "s"),
            ("p", ":ARG1", "o"),
            ("o", ":ARG0", "y"),
            ("o", ":ARG1", "h"),
        ),
        root="c",
    )


@pytest.fixture
def golden():
    return modal_graph()


@pytest.fixture
def contrast():
    return contrast_graph()


@pytest.fixture
def diagnose_calls(monkeypatch):
    """The graphs whose invariants validate checks, one entry per check
    (a graph already marked valid is not checked again)."""
    calls = []
    check = amr._diagnose

    def counted(graph):
        calls.append(graph)
        return check(graph)

    monkeypatch.setattr(amr, "_diagnose", counted)
    return calls
