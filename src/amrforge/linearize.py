"""DFS linearization of AMR graphs into pointer-token sequences, and back.

A graph flattens to a depth-first token walk in stored edge order.  Every
node receives one pointer token ``<Zk>`` (indices dense in first-visit
order); its first visit emits ``( <Zk> concept``, attribute and edge
relations, and a closing paren, while a reentrant re-visit emits only the
bare pointer.  :func:`delinearize` is the exact inverse up to node
renaming, and :func:`repair` coerces near-valid model output into a
sequence :func:`delinearize` accepts.

Both read tokens through one walker, which never stops early.  It
classifies each distinct token once per sequence, by its leading characters
(``(``, ``)``, ``:`` and more, ``<Z``), matching a symbol against its
pattern then, so each token of the walk costs one lookup.  At each
grammar rule a token breaks, it records a :class:`StructureError`, keeps
only the first one (rules are checked in a fixed order per token, so that
is the fault a strict reader would stop at), applies the fix
:func:`repair` documents and goes on.  :func:`delinearize` raises the
recorded fault; :func:`repair` re-linearizes the salvaged graph.  Only a
bare pointer can close a cycle, since a newly opened node has no
descendants yet, so the walker tests reachability only at those
back-references.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from . import tokens as tk
from .amr import (
    AmrGraph, Attribute, Edge, _by_source, _closure, _trusted, require_valid,
)

EMPTY_GRAPH_TOKENS = (tk.OPEN, tk.pointer(0), tk.EMPTY_CONCEPT, tk.CLOSE)


class StructureError(ValueError):
    """A token sequence that does not encode a graph, with the position of
    the first offending token."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (token {position})")


class RepairError(ValueError):
    """No node could be salvaged; callers substitute EMPTY_GRAPH_TOKENS."""


@dataclass(frozen=True)
class LinearLayout:
    """Token positions produced by one linearization.

    ``span`` maps each node to its first visit, from its open to its close
    paren inclusive, in pointer order: the ``k``-th key is the node whose
    span opens ``k``-th, which is node ``<Zk>`` of a fresh linearization.
    Its pointer follows at ``open + 1``, its concept at ``open + 2`` and,
    below the root, its introducing relation precedes it at ``open - 1``.
    ``ref_positions`` lists the bare pointers, each with its node, in text
    order, each after its relation at ``position - 1``.  Targeted
    corruption and rendering read nothing else, and write nothing: a graph
    hands one layout to every caller.
    """

    span: dict[str, tuple[int, int]]
    ref_positions: list[tuple[int, str]]


def linearize(graph: AmrGraph) -> list[str]:
    return linearize_with_layout(graph)[0]


def linearize_with_layout(graph: AmrGraph) -> tuple[list[str], LinearLayout]:
    """Depth-first linearization plus the token-position layout.

    The graph keeps its first walk, so a later call costs one copy: each
    call returns a fresh token list and the shared, read-only layout.
    """
    if graph._linear is not None:
        toks, layout = graph._linear
        return list(toks), layout
    require_valid(graph)
    concepts = graph.nodes
    out = _by_source(graph.edges)
    attrs = _by_source(graph.attributes)

    toks: list[str] = []
    span: dict[str, tuple[int, int]] = {}  # keyed at the open paren
    ref_positions: list[tuple[int, str]] = []

    # Explicit stack of open nodes, each with its edges still to write.
    # Whether a target expands or is a bare pointer is decided when its
    # edge is written, i.e. in textual order, so every node is defined at
    # its first occurrence in the depth-first walk.
    stack: list[tuple[str, Iterator[tuple[str, str]]]] = []
    opening: str | None = graph.root
    while opening is not None:
        span[opening] = (len(toks), -1)  # closed when the walk leaves the node
        toks += (tk.OPEN, tk.pointer(len(span) - 1), concepts[opening])
        for rel, value in attrs.get(opening, ()):
            toks += (rel, value)
        stack.append((opening, iter(out.get(opening, ()))))
        opening = None
        # write edges until one reaches a new node, closing finished nodes
        while stack and opening is None:
            node, edges = stack[-1]
            for rel, target in edges:
                toks.append(rel)
                if target not in span:
                    opening = target
                    break
                ref_positions.append((len(toks), target))
                toks.append(toks[span[target][0] + 1])  # the target's pointer
            else:
                stack.pop()
                span[node] = (span[node][0], len(toks))
                toks.append(tk.CLOSE)

    layout = LinearLayout(span, ref_positions)
    object.__setattr__(graph, "_linear", (toks, layout))
    return list(toks), layout


def delinearize(toks: list[str]) -> AmrGraph:
    """Rebuild a graph from a linearized sequence.

    Node ids are synthesized from pointer indices: ``<Z3>`` becomes
    ``z3``, or ``zz3`` where a symbol of the sequence is ``z`` and a number
    (:func:`~amrforge.tokens.name_prefix`).  The sequence must be balanced
    and pointer-consistent: every pointer is defined once, before any bare
    reference to it, and the rebuilt graph must be valid (concepts,
    relations and constants that :func:`~amrforge.amr.validate` accepts,
    no duplicate triples, no cycles through back references).  Raises the
    first :class:`StructureError` found.
    """
    graph, fault = _walk(toks)
    if fault is not None:
        raise fault
    return graph


def repair(toks: list[str]) -> list[str]:
    """Coerce an arbitrary token sequence into one delinearize accepts.

    Sequences that already delinearize are returned unchanged.  Otherwise
    a permissive rebuild closes unclosed nodes, drops nodes whose concept
    is missing or unusable, drops trailing, target-less or unusable
    relations and those with an unusable constant, drops references to
    pointers that were never defined (or not defined yet), keeps the
    first concept where a pointer is defined twice, and discards edges
    that would close a cycle; the salvaged graph is then re-linearized,
    which renumbers pointers densely.  Idempotent.  Raises
    :class:`RepairError` when no node survives; callers then substitute
    ``EMPTY_GRAPH_TOKENS``.
    """
    toks = list(toks)
    graph, fault = _walk(toks)
    if fault is None:
        return toks
    if graph is None:
        raise RepairError("no node could be salvaged")
    return linearize(graph)


# token kinds, named by the leading characters that mark them
_OPEN, _CLOSE, _RELATION, _POINTER, _VALUE = "(", ")", ":", "<Z", ""


def _classify(token: str, prefix: str) -> tuple[str, object]:
    """A token's kind in :func:`_walk`, with its usability or node id."""
    if (pointer := tk.pointer_index(token)) is not None:
        return _POINTER, f"{prefix}{pointer}"
    if token == tk.OPEN:
        return _OPEN, None
    if token == tk.CLOSE:
        return _CLOSE, None
    if tk.is_relation(token):
        return _RELATION, tk.usable_relation(token) is not None
    return _VALUE, tk.usable_value(token) is not None


def _walk(toks: list[str]) -> tuple[AmrGraph | None, StructureError | None]:
    """Read a token sequence under the delinearize grammar, salvaging as
    :func:`repair` describes.

    Returns the graph, pruned to what its root reaches (None when no node
    was defined), and the first broken rule (None for a well-formed
    sequence, whose graph is then exactly the one it encodes).  The graph
    is valid by construction, and is returned marked so: symbols pass
    :func:`~amrforge.amr.validate`'s patterns, duplicate triples and
    cycle-closing edges are refused, no constant names a node, and every
    node is reachable from the root.
    """
    nodes: dict[str, str] = {}
    children: dict[str, list[str]] = {}
    # insertion-ordered sets: the triples in the order they were read
    edges: dict[Edge, None] = {}
    attributes: dict[Attribute, None] = {}
    root: str | None = None
    stack: list[str | None] = []  # None marks a span whose node was dropped
    pending: tuple[str, int] | None = None  # relation awaiting its target
    fault: StructureError | None = None

    def fail(message: str, position: int) -> None:
        nonlocal fault
        if fault is None:
            fault = StructureError(message, position)

    def attach(target: str, position: int) -> None:
        nonlocal pending
        if pending is not None and stack and stack[-1] is not None:
            source, rel = stack[-1], pending[0]
            edge = (source, rel, target)
            if edge in edges:
                fail(f"duplicate edge ({source}, {rel}, {target})", position)
            elif target == source or (
                # a node without children reaches nothing but itself
                children[target] and source in _closure({target}, children)
            ):
                fail(f"edge ({source}, {rel}, {target}) would close a cycle", position)
            else:
                edges[edge] = None
                children[source].append(target)
        pending = None

    distinct = set(toks)
    prefix = tk.name_prefix(distinct)  # of the node ids, which no symbol takes
    kinds = {token: _classify(token, prefix) for token in distinct}
    free = 0  # no node id below {prefix}{free} is free, since nodes only grow
    n = len(toks)
    if not n:
        fail("empty sequence", 0)
    i = 0
    while i < n:
        token = toks[i]
        kind, detail = kinds[token]
        if kind == _OPEN:
            if root is not None and not stack:
                fail("unexpected content after the graph", i)
            if stack and pending is None:
                fail("node without an introducing relation", i)
            kind, detail = kinds[toks[i + 1]] if i + 1 < n else (None, None)
            # at: where the concept belongs
            node, at = (detail, i + 2) if kind == _POINTER else (None, i + 1)
            kind, detail = kinds[toks[at]] if at < n else (None, None)
            concept, usable = (toks[at], detail) if kind == _VALUE else (None, False)
            if node is None:
                fail("expected a pointer after '('", i + 1)
                while f"{prefix}{free}" in nodes:
                    free += 1
                node = f"{prefix}{free}"
            elif concept is None:
                fail("missing concept after pointer", i + 2)
            elif node in nodes:
                fail(f"pointer {toks[i + 1]} defined more than once", i + 1)
            elif not usable:
                fail(f"unusable concept {concept!r}", at)
            if node not in nodes and usable:
                nodes[node] = concept
                children[node] = []
                if root is None:
                    root = node
            if node in nodes:
                # a re-defined pointer keeps its first concept, and children
                # attach to the original node
                attach(node, i)
                stack.append(node)
            else:
                pending = None
                stack.append(None)
            i = at + (concept is not None)
            continue
        if kind == _CLOSE:
            if pending is not None:
                fail(f"relation {pending[0]!r} has no target", pending[1])
            pending = None
            if stack:
                stack.pop()
            else:
                fail("unbalanced ')'", i)
        elif kind == _RELATION:
            if not stack:
                fail("relation outside of a node", i)
            if pending is not None:
                fail(f"relation {pending[0]!r} has no target", pending[1])
            pending = (token, i) if stack else None
            if not detail:
                fail(f"unusable relation {token!r}", i)
                pending = None
        elif kind == _POINTER:
            if detail not in nodes:
                fail(f"pointer {token} used before definition", i)
                pending = None
            else:
                if not stack or pending is None:
                    fail(f"unexpected pointer {token}", i)
                attach(detail, i)
        else:  # a plain token: an attribute constant
            if not stack or pending is None:
                fail(f"unexpected token {token!r}", i)
            elif not detail:
                fail(f"unusable constant {token!r}", i)
            elif stack[-1] is not None:
                triple = (stack[-1], pending[0], token)
                if triple in attributes:
                    fail(f"duplicate attribute {triple}", i)
                else:
                    attributes[triple] = None
            pending = None
        i += 1

    if stack:
        fail("missing close-paren", n)
    # The first token either defines a node or breaks a rule, so a
    # sequence without a node always comes with a fault.
    if root is None:
        return None, fault
    if fault is not None:  # only a broken rule leaves a node unattached
        # keep is closed under children, so a kept source has a kept target
        keep = _closure({root}, children)
        nodes = {node: concept for node, concept in nodes.items() if node in keep}
        edges = {edge: None for edge in edges if edge[0] in keep}
        attributes = {attr: None for attr in attributes if attr[0] in keep}
    graph = _trusted(AmrGraph(
        nodes=nodes, edges=tuple(edges), attributes=tuple(attributes), root=root,
    ))
    return graph, fault
