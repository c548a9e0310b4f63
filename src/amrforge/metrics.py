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
from ._search import best_mapping
from .amr import AmrGraph, _by_source, require_valid

_SENSE_RE = re.compile(r"-\d{2,}$")
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


def _scored_smatch(
    left: TripleSet, right: TripleSet, restarts: int, rng, extra_seeds=()
) -> SmatchResult:
    """Scores under the best mapping :func:`best_mapping` finds."""
    matched, mapping = best_mapping(left, right, restarts, rng, extra_seeds)
    mapped = {v: image for v, image in mapping.items() if image is not None}
    return SmatchResult(matched, left.total, right.total, mapped)


def smatch(
    graph1: AmrGraph, graph2: AmrGraph, restarts: int = 4, seed: int = 0
) -> SmatchResult:
    """Triple-overlap F-score under the best mapping hill-climbing finds.

    Start mappings are a match-by-identical-name map, a concept-greedy
    map, and random injective maps up to ``restarts`` climbs; each climb
    repeatedly applies the single reassignment or pairwise swap with the
    largest gain in matched triples.  Precision is measured against
    ``graph1`` (the prediction side), recall against ``graph2``.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    left, right = to_triples(graph1), to_triples(graph2)
    return _scored_smatch(left, right, restarts, random.Random(seed))


def _strip_sense(concept: str) -> str:
    return _SENSE_RE.sub("", concept)


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
        instances=tuple((v, r, _strip_sense(c)) for v, r, c in triples.instances),
        attributes=tuple(
            (v, r, _strip_sense(x) if r == TOP_RELATION else x)
            for v, r, x in triples.attributes
        ),
        relations=triples.relations,
    )


def _reentrant_edges(triples: TripleSet):
    in_degree = Counter(t for _, _, t in triples.relations)
    return tuple(e for e in triples.relations if in_degree[e[2]] > 1)


def _srl_edges(triples: TripleSet):
    return tuple(e for e in triples.relations if _SRL_RE.match(e[1]))


def _restricted(triples: TripleSet, edges) -> TripleSet:
    # Instance triples anchor the mapping; attributes and TOP are dropped.
    return TripleSet(instances=triples.instances, attributes=(), relations=tuple(edges))


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

    Sub-metrics whose reference subset is empty are reported as ``None``
    (absent) rather than 0 or 1.  The variants that re-run the mapping
    search are additionally seeded with the best base mapping, which
    guarantees that removing edge labels or senses never lowers the score
    below the base Smatch.
    """
    base = smatch(graph1, graph2, restarts, seed)
    left, right = to_triples(graph1), to_triples(graph2)
    rng = random.Random(seed)
    base_seed = (base.mapping,)

    results: dict[str, SmatchResult | None] = {"smatch": base}
    results["unlabeled"] = _scored_smatch(
        _unlabeled(left), _unlabeled(right), restarts, rng, base_seed
    )
    results["no_wsd"] = _scored_smatch(
        _no_wsd(left), _no_wsd(right), restarts, rng, base_seed
    )
    # The TOP triple among the attributes counts in no multiset: its relation
    # is never :wiki or :polarity, and no :name edge ends at the root.
    for key, multiset in (
        ("concepts", _concept_multiset),
        ("wikification", _wiki_multiset),
        ("ner", _name_multiset),
        ("negation", _negation_multiset),
    ):
        results[key] = _multiset_f(multiset(left), multiset(right))

    # reentrancy before srl, so each draws from rng in the order it always has
    for key, selected in (("reentrancy", _reentrant_edges), ("srl", _srl_edges)):
        subset2 = selected(right)
        results[key] = _scored_smatch(
            _restricted(left, selected(left)),
            _restricted(right, subset2),
            restarts,
            rng,
            base_seed,
        ) if subset2 else None
    return results


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
    """Micro-average: matched and total counts summed across pairs."""
    matched = left_total = right_total = 0
    seen = False
    for result in results:
        if result is None:
            continue
        seen = True
        matched += result.matched
        left_total += result.left_total
        right_total += result.right_total
    if not seen:
        return None
    return SmatchResult(matched, left_total, right_total)

