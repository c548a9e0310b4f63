"""Shared graph fixtures and exact Smatch references used across the
test modules."""

import functools
import itertools
import random

import pytest

from amrforge import AmrGraph, amr
from amrforge._search import _applied, _MatchContext
from amrforge.linearize import linearize_with_layout
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
