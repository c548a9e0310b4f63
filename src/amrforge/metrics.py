"""Evaluation: triple overlap F-scores for graphs, corpus BLEU for text.

Graph similarity is the F-score over matched triples under the best
variable mapping the search in ``_search`` finds.  Fine-grained variants
score specific phenomena (edge labels removed, senses ignored, reentrant
edges only, and so on).  BLEU lives in ``_bleu`` and is re-exported here.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field

from ._bleu import BleuResult, corpus_bleu_details
from ._search import _MatchContext, best_mapping
from .amr import AmrGraph, _by_source, require_valid
from .tokens import strip_sense

_SRL_RE = re.compile(r":ARG\d", re.IGNORECASE)

TOP_RELATION = "TOP"
INSTANCE = "instance"


@dataclass(frozen=True)
class TripleSet:
    """A graph as instance, attribute and relation triples.

    Attribute triples include one ``(root, TOP, root concept)`` marker so
    root identity affects scores.  Triples are kept as multisets: label
    rewriting in fine-grained variants can introduce duplicates.
    """

    instances: tuple[tuple[str, str, str], ...]
    attributes: tuple[tuple[str, str, str], ...]
    relations: tuple[tuple[str, str, str], ...]

    @property
    def total(self) -> int:
        return len(self.instances) + len(self.attributes) + len(self.relations)


def to_triples(graph: AmrGraph) -> TripleSet:
    require_valid(graph)
    instances = tuple((n, INSTANCE, c) for n, c in graph.nodes.items())
    attributes = tuple(graph.attributes) + (
        (graph.root, TOP_RELATION, graph.nodes[graph.root]),
    )
    return TripleSet(
        instances=instances, attributes=attributes, relations=tuple(graph.edges)
    )


@dataclass(frozen=True)
class SmatchResult:
    """Matched triples, each side's total and the mapping that matched
    them; the scores follow from the counts."""

    matched: int
    left_total: int
    right_total: int
    mapping: dict[str, str] = field(default_factory=dict)

    @property
    def precision(self) -> float:
        return self.matched / self.left_total if self.left_total else 0.0

    @property
    def recall(self) -> float:
        return self.matched / self.right_total if self.right_total else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r > 0 else 0.0


def smatch(
    graph1: AmrGraph, graph2: AmrGraph, restarts: int = 4, seed: int = 0
) -> SmatchResult:
    """Triple-overlap F-score under the best mapping hill-climbing finds.

    Climbs start at the greedy (concept-matched) and name mappings, then
    random ones up to ``restarts`` (``_search.best_mapping``); each takes
    its best move, then a few sideways steps, and the first to reach the
    ceiling ends the search, so the start order moves no count.  Precision
    is against ``graph1`` (the prediction side), recall against ``graph2``.
    """
    return _base_smatch(graph1, graph2, restarts, seed)[-1]


def _base_smatch(graph1: AmrGraph, graph2: AmrGraph, restarts: int, seed: int):
    """Both graphs' triples, their context and :func:`smatch`'s result."""
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    left, right = to_triples(graph1), to_triples(graph2)
    context = _MatchContext(left, right)
    matched, mapping = best_mapping(context, restarts, random.Random(seed))
    return left, right, context, SmatchResult(matched, left.total, right.total, mapping)


def _unlabeled(triples: TripleSet) -> TripleSet:
    return TripleSet(
        instances=triples.instances,
        attributes=tuple(
            (v, r if r == TOP_RELATION else ":label", x)
            for v, r, x in triples.attributes
        ),
        relations=tuple((s, ":label", t) for s, _, t in triples.relations),
    )


def _no_wsd(triples: TripleSet) -> TripleSet:
    return TripleSet(
        instances=tuple((v, r, strip_sense(c)) for v, r, c in triples.instances),
        attributes=tuple(
            (v, r, strip_sense(x) if r == TOP_RELATION else x)
            for v, r, x in triples.attributes
        ),
        relations=triples.relations,
    )


def _reentrancy(triples: TripleSet) -> TripleSet:
    """Instance triples, which anchor the mapping, and edges into reentrant nodes."""
    in_degree = Counter(t for _, _, t in triples.relations)
    edges = tuple(e for e in triples.relations if in_degree[e[2]] > 1)
    return TripleSet(instances=triples.instances, attributes=(), relations=edges)


def _srl(triples: TripleSet) -> TripleSet:
    """Instance triples and ``:ARGn`` edges; no attribute, TOP included."""
    edges = tuple(e for e in triples.relations if _SRL_RE.match(e[1]))
    return TripleSet(instances=triples.instances, attributes=(), relations=edges)


# The variants that re-run the mapping search, in the order they draw from
# fine_grained's shared generator; a re-run shares the base tables of the
# triples it passes through on both sides (see ``_MatchContext``).  One whose
# gold side keeps only instance triples is absent: only the last two can.
SEARCHED_VARIANTS = (
    ("unlabeled", _unlabeled),
    ("no_wsd", _no_wsd),
    ("reentrancy", _reentrancy),
    ("srl", _srl),
)


def _multiset_f(left: Counter, right: Counter) -> SmatchResult | None:
    if not right:
        return None  # reported as absent, never 0 or 1
    matched = sum(min(count, right.get(item, 0)) for item, count in left.items())
    return SmatchResult(matched, sum(left.values()), sum(right.values()))


def _concept_multiset(triples: TripleSet) -> Counter:
    return Counter(c for _, _, c in triples.instances)


def _wiki_multiset(triples: TripleSet) -> Counter:
    return Counter(v for _, r, v in triples.attributes if r == ":wiki")


def _negation_multiset(triples: TripleSet) -> Counter:
    concepts = {v: c for v, _, c in triples.instances}
    marks = Counter()
    for s, r, v in triples.attributes:
        if r == ":polarity":
            marks[(concepts[s], v)] += 1
    for s, r, t in triples.relations:
        if r == ":polarity":
            marks[(concepts[s], concepts[t])] += 1
    return marks


def _name_multiset(triples: TripleSet) -> Counter:
    concepts = {v: c for v, _, c in triples.instances}
    attrs_by_node = _by_source(triples.attributes)
    names = Counter()
    for s, r, t in triples.relations:
        if r == ":name":
            signature = (
                concepts[s],
                concepts[t],
                tuple(sorted(attrs_by_node.get(t, []))),
            )
            names[signature] += 1
    return names


def fine_grained(
    graph1: AmrGraph, graph2: AmrGraph, restarts: int = 4, seed: int = 0
) -> dict[str, SmatchResult | None]:
    """Smatch plus the standard fine-grained sub-metrics.

    Sub-metrics whose gold (``graph2``) subset is empty are reported as
    ``None`` (absent) rather than 0 or 1.  Each graph's triples are read
    once.  The base is :func:`smatch`'s search; then each of
    ``SEARCHED_VARIANTS`` re-runs it on one generator, climbing the base
    mapping, the greedy and name starts and the random starts it drew, up
    to the first climb that reaches the ceiling.  A re-run's tables share
    the base's for the triples its variant passes through unchanged.
    So removing edge labels or senses never lowers the score below Smatch.
    The start order can move only a re-run's count, via the base mapping.
    """
    left, right, context, base = _base_smatch(graph1, graph2, restarts, seed)
    rng = random.Random(seed)
    results: dict[str, SmatchResult | None] = {"smatch": base}
    for key, variant in SEARCHED_VARIANTS:
        a, b = variant(left), variant(right)
        if b.attributes or b.relations:  # else absent
            shared = _MatchContext(a, b, context)
            matched, mapping = best_mapping(shared, restarts, rng, (base.mapping,))
            results[key] = SmatchResult(matched, a.total, b.total, mapping)
    # The TOP triple among the attributes counts in no multiset: its relation
    # is never :wiki or :polarity, and no :name edge ends at the root.
    for key, multiset in (
        ("concepts", _concept_multiset),
        ("wikification", _wiki_multiset),
        ("ner", _name_multiset),
        ("negation", _negation_multiset),
    ):
        results[key] = _multiset_f(multiset(left), multiset(right))
    return {key: results.get(key) for key in FINE_GRAINED_KEYS}


FINE_GRAINED_KEYS = (
    "smatch",
    "unlabeled",
    "no_wsd",
    "concepts",
    "wikification",
    "ner",
    "negation",
    "reentrancy",
    "srl",
)


def aggregate(results) -> SmatchResult | None:
    """Micro-average: the counts of the present results summed, or None."""
    present = [result for result in results if result is not None]
    if not present:
        return None
    return SmatchResult(sum(r.matched for r in present),
                        sum(r.left_total for r in present),
                        sum(r.right_total for r in present))

