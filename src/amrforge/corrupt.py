"""Noise functions over linearized graphs and plain text.

Three corruptions are provided: masking individual node concepts and edge
relations, replacing a whole depth-first subtree span with one ``[mask]``,
and masking word tokens.  Every operation is pure given an explicit
``random.Random`` generator and returns the corrupted sequence together
with its edits, which are sufficient to restore the original sequence
exactly.

Graph corruption reads positions from the :class:`LinearLayout` of one
linearization and never re-parses tokens: masking a token one-for-one
moves no position, and a removed span drops the positions inside it and
shifts those after it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import tokens as tk
from .amr import AmrGraph
from .linearize import LinearLayout, linearize_with_layout

# One edit replaces the slice starting at position with a single [mask].
Edit = tuple[str, int, tuple[str, ...]]  # (kind, position, original tokens)


@dataclass(frozen=True)
class CorruptionConfig:
    """Masking rates (fractions of eligible elements) plus the corpus seed."""

    node_rate: float = 0.15
    edge_rate: float = 0.15
    subgraph_rate: float = 0.35
    text_rate: float = 0.15
    seed: int = 0

    def __post_init__(self):
        for name in ("node_rate", "edge_rate", "subgraph_rate", "text_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")


def restore_tokens(corrupted: list[str], edits: tuple[Edit, ...]) -> list[str]:
    """Undo a corruption: the exact original tokens.  ``edits`` lists its
    replacements in application order, each at a position of the sequence
    it was applied to, and they are undone in reverse.  Raises
    ``ValueError`` (record mismatch) where an edit finds no ``[mask]``."""
    out = list(corrupted)
    for _, position, original in reversed(edits):
        if not 0 <= position < len(out) or out[position] != tk.MASK:
            raise ValueError(f"no [mask] at position {position}; record mismatch")
        out[position : position + 1] = list(original)
    return out


def derive_rng(seed: int, index: int) -> random.Random:
    """Per-example generator: corpus seed XOR example index."""
    return random.Random(seed ^ index)


def _half_up(x: float) -> int:
    # round-to-nearest with ties away from zero; x is never negative here
    return int(x + 0.5)


def node_edge_step(node_rate: float, edge_rate: float):
    """Corruption step masking concept and edge-relation tokens in place.

    Masks ``round(node_rate * N)`` of the N not-yet-masked concepts and
    ``round(edge_rate * E)`` of the E not-yet-masked edge relations,
    uniformly without replacement.  Parentheses and pointer tokens are
    untouched, one ``[mask]`` per masked element.
    """

    def step(toks: list[str], layout: LinearLayout, rng: random.Random):
        # a node's concept follows its open paren and pointer; an edge
        # relation precedes each open but the root's, at 0, or a bare pointer
        opens = [o for o, _ in layout.span.values()]
        concept_candidates = _unmasked(toks, (o + 2 for o in opens))
        edge_candidates = _unmasked(toks, [o - 1 for o in opens if o]
                                    + [pos - 1 for pos, _ in layout.ref_positions])
        node_picks = rng.sample(
            concept_candidates, _half_up(node_rate * len(concept_candidates))
        )
        edge_picks = rng.sample(
            edge_candidates, _half_up(edge_rate * len(edge_candidates))
        )
        kinds = dict.fromkeys(node_picks, "node") | dict.fromkeys(edge_picks, "edge")
        out, edits = _mask_each(toks, kinds)
        return out, layout, edits

    return step


def _unmasked(toks: list[str], positions) -> list[int]:
    return sorted(pos for pos in positions if toks[pos] != tk.MASK)


def _mask_each(toks: list[str], kinds: dict[int, str]):
    """Mask the token at each position; one edit of the given kind each,
    in position order."""
    out = list(toks)
    for pos in kinds:
        out[pos] = tk.MASK
    return out, tuple((kinds[pos], pos, (toks[pos],)) for pos in sorted(kinds))


def subgraph_step(probability: float):
    """Corruption step replacing one depth-first subtree span by ``[mask]``.

    With the given probability, one eligible span is chosen uniformly and
    the whole ``:rel ( <Zk> ... )`` stretch collapses to a single mask
    token.  A span is eligible when it is not the root span and no pointer
    defined inside it is referenced outside it (removing such a span would
    orphan the reference).  Sequences with fewer than two nodes pass
    through unchanged.
    """

    def step(toks: list[str], layout: LinearLayout, rng: random.Random):
        if len(layout.span) > 1 and rng.random() < probability:
            eligible = _eligible_spans(layout)
            if eligible:
                return _cut_span(toks, layout, eligible[rng.randrange(len(eligible))])
        return toks, layout, ()

    return step


def _eligible_spans(layout: LinearLayout) -> list[str]:
    """Non-root nodes whose span can be removed, in text order.

    Spans nest along the depth-first spanning tree, so folding each
    node's last reference up that tree gives, per span, the last
    reference to any pointer defined inside it.  A pointer is referenced
    only after its definition, so the span keeps all those references
    exactly when that last one lies before its close paren.
    """
    # ref_positions runs in text order, so each node keeps its last reference
    last = {node: pos for pos, node in layout.ref_positions}
    parent: dict[str, str | None] = {}
    enclosing: list[str] = []
    for node in layout.span:  # in text order of the open parens
        while enclosing and layout.span[enclosing[-1]][1] < layout.span[node][0]:
            enclosing.pop()
        parent[node] = enclosing[-1] if enclosing else None
        enclosing.append(node)
    for node in reversed(layout.span):  # descendants before their ancestors
        up = parent[node]
        if up is not None and node in last:
            last[up] = max(last.get(up, -1), last[node])
    return [
        node
        for node in layout.span
        if parent[node] is not None and last.get(node, -1) <= layout.span[node][1]
    ]


def _cut_span(toks: list[str], layout: LinearLayout, node: str):
    """Replace ``node``'s span and its introducing relation by one ``[mask]``.

    Returns the tokens, the layout with the positions inside the span
    dropped and those after it shifted, and the edits: the one removal.
    """
    start, end = layout.span[node][0] - 1, layout.span[node][1]
    removed = tuple(toks[start : end + 1])
    shift = len(removed) - 1

    def moved(pos: int) -> int:
        return pos - shift if pos > end else pos

    cut = LinearLayout(
        span={other: (moved(o), moved(c)) for other, (o, c) in layout.span.items()
              if not start <= o <= end},
        ref_positions=[(moved(pos), other) for pos, other in layout.ref_positions
                       if not start <= pos <= end],
    )
    out = toks[:start] + [tk.MASK] + toks[end + 1 :]
    return out, cut, (("subgraph", start, removed),)


def mask_text(toks: list[str], rate: float, rng: random.Random):
    """Replace ``round(rate * n)`` uniformly chosen word tokens by ``[mask]``,
    counting only the n tokens that are not ``[mask]`` already."""
    for token in toks:
        if token in tk.MARKERS:
            raise ValueError(f"text to corrupt must not contain marker {token}")
    candidates = [i for i, token in enumerate(toks) if token != tk.MASK]
    picks = rng.sample(candidates, _half_up(rate * len(candidates)))
    out, edits = _mask_each(toks, dict.fromkeys(picks, "text"))
    return out, edits


def compose(graph: AmrGraph, steps, rng: random.Random):
    """Apply corruption steps in order to the graph's linearization.

    Each step is called as ``step(toks, layout, rng)`` with the running
    token sequence and its :class:`LinearLayout`, leaves both untouched,
    and returns ``(toks, layout, edits)`` for the next step, positions in
    its edits referring to the sequence it was given.  Returns the tokens
    and all edits in order: :func:`restore_tokens` undoes them whatever
    the steps, however many remove a sub-graph.  Sub-graph masking
    conventionally runs first, so later steps see the remaining elements.
    """
    toks, layout = linearize_with_layout(graph)
    edits: list[Edit] = []
    for step in steps:
        toks, layout, step_edits = step(toks, layout, rng)
        edits += step_edits
    return toks, tuple(edits)


def mask_nodes_edges(graph: AmrGraph, config: CorruptionConfig, rng: random.Random):
    """Mask node concepts and edge relations of a graph's linearization."""
    return compose(graph, [node_edge_step(config.node_rate, config.edge_rate)], rng)


def mask_subgraph(graph: AmrGraph, config: CorruptionConfig, rng: random.Random):
    """Remove one random subtree span of a graph's linearization."""
    return compose(graph, [subgraph_step(config.subgraph_rate)], rng)


def corrupt_graph(graph: AmrGraph, config: CorruptionConfig, rng: random.Random):
    """The full graph noise: sub-graph masking, then node/edge masking on
    the remaining unmasked elements."""
    return compose(
        graph,
        [
            subgraph_step(config.subgraph_rate),
            node_edge_step(config.node_rate, config.edge_rate),
        ],
        rng,
    )


