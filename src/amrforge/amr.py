"""Core AMR graph model: validation, complexity statistics, isomorphism.

An AMR is a rooted, labeled, directed acyclic graph.  Nodes carry concept
labels and edges carry relation labels.  Constant-valued facts (polarity
markers, quantities, quoted names) live in a separate attribute list, so
graph statistics count semantic variables only.

All types are immutable after construction and all operations are pure,
so graphs can be shared freely across threads.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import dropwhile, filterfalse
from types import MappingProxyType

from .tokens import usable_node_id, usable_relation, usable_value

Edge = tuple[str, str, str]
Attribute = tuple[str, str, str]

SIZE_BUCKETS = ("1-10", "11-20", ">20")
DEPTH_BUCKETS = ("1-3", "4-6", ">6")
REENTRANCY_BUCKETS = ("0", "1-3", ">3")


@dataclass(frozen=True)
class Diagnostic:
    """One invariant violation reported by :func:`validate`."""

    code: str
    message: str


class InvalidGraphError(ValueError):
    """Raised by operations whose precondition is a valid graph."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__(
            "invalid graph: " + "; ".join(d.message for d in self.diagnostics)
        )


@dataclass(frozen=True, eq=True)
class AmrGraph:
    """A rooted labeled directed graph.

    Attributes:
        nodes: mapping from node id to concept label; insertion order is
            preserved and meaningful for deterministic traversal.
        edges: relation triples ``(source, relation, target)`` in
            source-document order.
        attributes: constant triples ``(source, relation, value)``; quoted
            string constants keep their quotes.
        root: id of the root node.

    Node ids are opaque strings: PENMAN variable names on ingest,
    ``z0, z1, ...`` when synthesized.

    ``nodes`` is a read-only view of a private copy, so a graph cannot
    change once built.  :func:`validate` keeps a passing result on the
    instance, and :func:`~amrforge.linearize.linearize_with_layout` its
    walk, or, in ``amrforge delinearize`` alone, the token line it came from.
    :func:`~amrforge.penman.parse_penman` marks a graph whose nesting proves
    it rooted, connected and acyclic.  None is a field, so equality ignores
    them, and a graph made by ``dataclasses.replace`` or by unpickling
    starts without them.
    """

    nodes: Mapping[str, str]
    edges: tuple[Edge, ...] = ()
    attributes: tuple[Attribute, ...] = ()
    root: str = ""

    _valid = False  # set on an instance by validate or _trusted
    _linear = None  # set on an instance by linearize_with_layout
    _nested = False  # set on an instance by parse_penman: see _diagnose

    def __post_init__(self):
        object.__setattr__(self, "nodes", MappingProxyType(dict(self.nodes)))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        object.__setattr__(
            self, "attributes", tuple(tuple(a) for a in self.attributes)
        )

    def __reduce__(self):
        # a mapping proxy cannot be pickled (smatch --jobs sends graphs to
        # worker processes); rebuild from a plain dict, unmarked, unwalked
        return AmrGraph, (dict(self.nodes), self.edges, self.attributes, self.root)


def _by_source(triples: Iterable[tuple[str, str, str]]):
    """``(relation, other end)`` per source, in stored order.

    Only a source with triples has a key, so readers use ``.get(node, ())``.
    """
    table: dict[str, list[tuple[str, str]]] = {}
    for source, relation, end in triples:
        table.setdefault(source, []).append((relation, end))
    return table


@dataclass(frozen=True)
class GraphStats:
    """Graph complexity measures with their standard report buckets."""

    size: int
    depth: int
    reentrancies: int
    size_bucket: str
    depth_bucket: str
    reent_bucket: str


def validate(graph: AmrGraph) -> list[Diagnostic]:
    """Check every graph invariant, returning one diagnostic per violation.

    Violations are returned, never raised, so any structurally well-formed
    record can be inspected.  An empty list means the graph is valid:
    the root exists, all edge and attribute endpoints are known, there are
    no duplicate triples, the graph is connected, every node is reachable
    from the root along directed edges, and the graph is acyclic.
    A valid graph is marked as such, and later calls return at once.
    """
    if graph._valid:
        return []
    diags = _diagnose(graph)
    if not diags:
        _trusted(graph)
    return diags


def _trusted(graph: AmrGraph) -> AmrGraph:
    """Mark a graph valid without checking it: only for graphs built
    under rules that give every invariant :func:`validate` checks."""
    object.__setattr__(graph, "_valid", True)
    return graph


def _diagnose(graph: AmrGraph) -> list[Diagnostic]:
    """One diagnostic per violation, in a fixed order: root, endpoints,
    duplicates, symbols, connectivity, reachability, cycles.

    Each kind of violation is decided by one linear check, and the walk
    that explains it runs only when that check fails: the duplicate
    counts when a set of the triples is smaller than the triples, and the
    connectivity, reachability and cycle walks when a topological peel
    from the root does not take every node.  A graph marked ``_nested``
    by :func:`~amrforge.penman.parse_penman` is rooted, connected and
    acyclic, and its endpoints are nodes, so it takes the duplicate and
    symbol checks alone: no child table, endpoint loop or peel.
    """
    nodes = graph.nodes
    if not nodes:
        return [Diagnostic("missing-root", "graph has no nodes")]
    diags: list[Diagnostic] = []
    if graph.root not in nodes:
        diags.append(
            Diagnostic("missing-root", f"root {graph.root!r} is not a node")
        )

    if not graph._nested:  # a nested graph's endpoints are all nodes
        # child lists in edge order, duplicates kept: the one adjacency that
        # the peel, connectivity, reachability and the cycle search all read
        children: dict[str, list[str]] = {n: [] for n in nodes}
        in_degree = dict.fromkeys(nodes, 0)
        for s, r, t in graph.edges:
            if s in children and t in children:
                children[s].append(t)
                in_degree[t] += 1
            else:
                unknown = [v for v in (s, t) if v not in nodes]
                message = f"edge ({s}, {r}, {t}) references unknown node(s) {unknown}"
                diags.append(Diagnostic("dangling-edge", message))
        for s, r, v in graph.attributes:
            if s not in nodes:
                message = f"attribute ({s}, {r}, {v}) references unknown node {s!r}"
                diags.append(Diagnostic("dangling-attribute", message))

    for kind, triples in (("edge", graph.edges), ("attribute", graph.attributes)):
        if len(set(triples)) != len(triples):
            for triple, count in Counter(triples).items():
                if count > 1:
                    message = f"{kind} {triple} appears {count} times"
                    diags.append(Diagnostic(f"duplicate-{kind}", message))

    diags.extend(_check_symbols(graph))

    if graph._nested or _peels_from_root(graph.root, children, in_degree):
        return diags  # connected, reachable from the root and acyclic
    if graph.root in nodes:
        undirected = {n: set(targets) for n, targets in children.items()}
        for s, targets in children.items():
            for t in targets:
                undirected[t].add(s)
        component = _closure({graph.root}, undirected)
        stray = [n for n in nodes if n not in component]
        while stray:
            group = _closure({stray[0]}, undirected)
            diags.append(
                Diagnostic(
                    "disconnected",
                    f"component {sorted(group)} is not connected to the root",
                )
            )
            stray = [n for n in stray if n not in group]

        reachable = _closure({graph.root}, children)
        unreachable = sorted(n for n in component if n not in reachable)
        if unreachable:
            diags.append(
                Diagnostic(
                    "unreachable",
                    "nodes not reachable from the root along directed edges: "
                    f"{unreachable}",
                )
            )

    diags.extend(_find_cycles(children))
    return diags


def _peels_from_root(
    root: str, children: dict[str, list[str]], in_degree: dict[str, int]
) -> bool:
    """True iff a topological peel started from the root alone takes
    every node; ``in_degree`` is used up.

    A node is taken once all its parents are, so a node on a cycle never
    is, nor a node the root does not reach.  In a DAG whose only source
    is the root every node is taken.  So the peel takes every node exactly
    when the graph is connected, reachable from the root and acyclic.
    """
    if in_degree.get(root) != 0:  # a missing root, or an edge into it
        return False
    taken = [root]
    for node in taken:
        for child in children[node]:
            in_degree[child] -= 1
            if not in_degree[child]:
                taken.append(child)
    return len(taken) == len(children)


def _check_symbols(graph: AmrGraph) -> list[Diagnostic]:
    """Reject labels outside the symbol grammar of :mod:`amrforge.tokens`.

    A node id or concept containing delimiter characters, a concept shaped
    like a pointer token, a relation without its leading colon, a
    constant with delimiters outside a usable quoted symbol, or a constant
    that names a node would all serialize into text that no longer parses
    back to the same graph, so they are invalid.  Each node id and each
    distinct concept, constant and relation is matched once; the uses of
    a bad one are listed only when there is one.
    """
    constants = {v for _, _, v in graph.attributes}
    relations = {r for _, r, _ in graph.edges + graph.attributes}
    bad_ids = set(filterfalse(usable_node_id, graph.nodes))
    bad_values = set(filterfalse(usable_value, constants.union(graph.nodes.values())))
    bad_relations = set(filterfalse(usable_relation, relations))
    naming = {v for v in constants if v in graph.nodes}  # read back as edges
    if not (bad_ids or bad_values or bad_relations or naming):
        return []
    messages: list[str] = []
    for node, concept in graph.nodes.items():
        if node in bad_ids:
            messages.append(f"unusable node id {node!r}")
        if concept in bad_values:
            messages.append(f"unusable concept {concept!r} on node {node!r}")
    for source, rel, _ in graph.edges + graph.attributes:
        if rel in bad_relations:
            messages.append(f"unusable relation {rel!r} on node {source!r}")
    for source, rel, value in graph.attributes:
        where = f"under ({source!r}, {rel!r})"
        if value in bad_values:
            messages.append(f"unusable constant {value!r} {where}")
        elif value in naming:
            messages.append(f"constant {value!r} {where} names a node")
    return [Diagnostic("bad-symbol", message) for message in messages]


def _closure(start: set[str], adjacency: Mapping[str, Iterable[str]]) -> set[str]:
    seen = set(start)
    frontier = deque(start)
    while frontier:
        for nxt in adjacency[frontier.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _find_cycles(adjacency: dict[str, list[str]]) -> list[Diagnostic]:
    """Report one diagnostic per back edge found by depth-first search."""
    finished: set[str] = set()
    diags: list[Diagnostic] = []
    for start in adjacency:
        if start in finished:
            continue
        # the open nodes in path order, each with an iterator over its edges left
        path = {start: iter(adjacency[start])}
        while path:
            for child in next(reversed(path.values())):
                if child in path:  # a back edge: the path from child on is a cycle
                    cycle = [*dropwhile(child.__ne__, path), child]
                    diags.append(
                        Diagnostic("cycle", "cycle: " + " -> ".join(cycle))
                    )
                elif child not in finished:
                    path[child] = iter(adjacency[child])
                    break
            else:
                finished.add(path.popitem()[0])
    return diags


def require_valid(graph: AmrGraph) -> None:
    if graph._valid:  # checked already: not even a call to validate
        return
    diags = validate(graph)
    if diags:
        raise InvalidGraphError(diags)


def compute_stats(graph: AmrGraph) -> GraphStats:
    """Size, depth and reentrancy counts with their report buckets.

    Depth is the largest per-node distance from the root, where each
    node's distance is its shortest directed path (the minimum is used for
    reentrant nodes so the measure is well defined on any DAG).  Attribute
    constants are not nodes and contribute to none of the measures.
    """
    require_valid(graph)
    size = len(graph.nodes)
    depth = max(_root_distances(graph, _by_source(graph.edges)).values())

    in_degree = Counter(t for _, _, t in graph.edges)
    reentrancies = sum(1 for count in in_degree.values() if count > 1)

    return GraphStats(
        size=size,
        depth=depth,
        reentrancies=reentrancies,
        size_bucket=_bucket(size, 10, 20, SIZE_BUCKETS),
        depth_bucket=_bucket(depth, 3, 6, DEPTH_BUCKETS),  # depth 0: a single node
        reent_bucket=_bucket(reentrancies, 0, 3, REENTRANCY_BUCKETS),
    )


def _root_distances(graph: AmrGraph, out) -> dict[str, int]:
    """Shortest directed distance from the root, per node it reaches, along
    the out-edge table ``out`` of :func:`_by_source`."""
    distance = {graph.root: 0}
    frontier = deque([graph.root])
    while frontier:
        node = frontier.popleft()
        for _, target in out.get(node, ()):
            if target not in distance:
                distance[target] = distance[node] + 1
                frontier.append(target)
    return distance


def _bucket(value: int, low: int, high: int, labels: tuple[str, str, str]) -> str:
    """The first label up to ``low``, the second up to ``high``, then the third."""
    return labels[(value > low) + (value > high)]


def is_isomorphic(first: AmrGraph, second: AmrGraph) -> bool:
    """True iff some node-id bijection preserves root, concepts, edges and
    attributes.

    Node colours are refined jointly (a Weisfeiler-Leman style partition
    seeded with concept, distance from the root, degrees and attributes;
    a refined colour keeps its previous one), so unequal colour histograms
    reject early; a backtracking search over same-colour candidates
    confirms that every edge maps onto an edge, so the answer is exact at
    every size.  Runtime can degenerate only on automorphism-heavy graphs.
    """
    require_valid(first)
    require_valid(second)
    adjacency1, adjacency2 = _adjacency(first), _adjacency(second)
    colors1, colors2 = _joint_colors(first, second, adjacency1, adjacency2)
    if Counter(colors1.values()) != Counter(colors2.values()):
        return False
    return _search_bijection(first, second, adjacency1, colors1, colors2)


def _adjacency(graph: AmrGraph):
    """Outgoing ``(relation, target)`` and incoming ``(relation, source)``
    per node, as :func:`_by_source` tables."""
    inverse = ((t, r, s) for s, r, t in graph.edges)
    return _by_source(graph.edges), _by_source(inverse)


def _joint_colors(first: AmrGraph, second: AmrGraph, adjacency1, adjacency2):
    interned: dict = {}

    def intern(key):
        return interned.setdefault(key, len(interned))

    def initial(graph, out, inn):
        attrs = _by_source(graph.attributes)
        # the distance already tells nodes of a chain apart, which would
        # otherwise take one refinement round per step of depth
        distance = _root_distances(graph, out)
        return {
            n: intern(
                (
                    "node",
                    graph.nodes[n],
                    distance[n],
                    len(out.get(n, ())),
                    len(inn.get(n, ())),
                    tuple(sorted(attrs.get(n, ()))),
                )
            )
            for n in graph.nodes
        }

    colors1 = initial(first, *adjacency1)
    colors2 = initial(second, *adjacency2)

    def refine(colors, out, inn):
        return {
            n: intern(
                (
                    colors[n],
                    tuple(sorted((r, colors[t]) for r, t in out.get(n, ()))),
                    tuple(sorted((r, colors[s]) for r, s in inn.get(n, ()))),
                )
            )
            for n in colors
        }

    for _ in range(len(first.nodes) + 1):
        # A refined colour keeps its previous colour in its key, so once
        # the two histograms differ they differ after every later round
        if Counter(colors1.values()) != Counter(colors2.values()):
            break
        before = len(set(colors1.values()) | set(colors2.values()))
        colors1 = refine(colors1, *adjacency1)
        colors2 = refine(colors2, *adjacency2)
        after = len(set(colors1.values()) | set(colors2.values()))
        if after == before:
            break
    return colors1, colors2


def _search_bijection(first, second, adjacency1, colors1, colors2) -> bool:
    by_color: dict[int, list[str]] = {}
    for n in second.nodes:
        by_color.setdefault(colors2[n], []).append(n)
    # equal colour histograms: every colour of first has nodes in second
    candidates = {n: by_color[colors1[n]] for n in first.nodes}
    order = sorted(first.nodes, key=lambda n: len(candidates[n]))

    out1, inn1 = adjacency1
    edge_set2 = set(second.edges)

    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(v1: str, v2: str) -> bool:
        for r, t in out1.get(v1, ()):
            image = mapping.get(t)
            if image is not None and (v2, r, image) not in edge_set2:
                return False
        for r, s in inn1.get(v1, ()):
            image = mapping.get(s)
            if image is not None and (image, r, v2) not in edge_set2:
                return False
        return True

    # Depth-first backtracking with an explicit stack (graphs can be deeper
    # than the interpreter's recursion limit): untried[p] holds the
    # remaining candidates of order[p], tried in candidate order.
    untried: list = []
    position = 0
    while position < len(order):
        v1 = order[position]
        if position == len(untried):
            untried.append(iter(candidates[v1]))
        else:  # back from a dead end: undo this position's choice
            used.discard(mapping.pop(v1))
        for v2 in untried[position]:
            if v2 not in used and consistent(v1, v2):
                mapping[v1] = v2
                used.add(v2)
                position += 1
                break
        else:
            untried.pop()
            if not untried:
                return False
            position -= 1
    return True
