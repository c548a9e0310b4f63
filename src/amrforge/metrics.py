"""Evaluation: triple overlap F-scores for graphs, corpus BLEU for text.

Graph similarity is the F-score over matched triples under the best
variable mapping found.  The mapping search is hill-climbing over single
reassignments and pairwise swaps from several start mappings; a
brute-force oracle over all injective mappings is provided for small
graphs so the search quality is measurable.  Fine-grained variants score
specific phenomena (edge labels removed, senses ignored, reentrant edges
only, and so on).

As in Cai & Knight's ``smatch.py`` (ACL 2013), mappings are scored from
integer weight tables built once per graph pair: one for what a single
variable matches at each target, one for what the relations between two
adjacent variables match at each target pair.  The mappings the search
visits are injective, which makes this split of the matched count exact
(see :class:`_MatchContext`), so a move's gain is a sum of a few table
entries.  The greedy step scores only moves whose new side can match
something, walked in the same order as the full move list, so it picks
the same move; plateau steps scan the full list.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field

from .amr import AmrGraph, require_valid

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
    precision: float
    recall: float
    f1: float
    matched: int
    left_total: int
    right_total: int
    mapping: dict[str, str] = field(default_factory=dict)


def _result(matched, left_total, right_total, mapping) -> SmatchResult:
    precision = matched / left_total if left_total else 0.0
    recall = matched / right_total if right_total else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return SmatchResult(
        precision=precision,
        recall=recall,
        f1=f1,
        matched=matched,
        left_total=left_total,
        right_total=right_total,
        mapping={k: v for k, v in mapping.items() if v is not None},
    )


_NO_MATCHES: dict = {}


class _MatchContext:
    """Weight tables that score variable mappings between two triple sets.

    Variables are numbered in instance order; a mapping is a list of
    right-variable numbers (or ``None``) indexed by left variable.  Every
    mapping the search visits is injective: the seeds are, a reassignment
    evicts the target's holder, and a swap exchanges two images.  Under an
    injective mapping ``m`` a left triple on one variable ``v`` (instance,
    attribute or self-loop) can land only on a triple of ``m(v)``, and a
    relation from ``v`` to ``w != v`` only on a relation from ``m(v)`` to
    ``m(w)``, where no other left triple lands.  Left triples therefore
    compete for a right triple's count only within one variable or one
    ordered variable pair, and the matched count splits exactly into

    * unary terms: ``unary[v][j]`` is the clipped matches of ``v``'s
      instance, attribute and self-loop triples against right variable
      ``j``'s, and
    * pairwise terms: ``links[v][w][k][j]`` is the clipped matches of the
      relation labels between ``v`` and ``w`` (both directions) when ``v``
      is at ``j`` and ``w`` at ``k``.  Right self-loops are unary, so no
      entry has ``j == k``.

    Only nonzero entries are stored, so the keys double as the places
    where a variable can match anything.  The tables are built once per
    context; scoring a move then sums a few entries (see :class:`_Position`).
    """

    def __init__(self, left: TripleSet, right: TripleSet):
        self.vars1 = [v for v, _, _ in left.instances]
        self.vars2 = [v for v, _, _ in right.instances]
        self.concepts1 = [c for _, _, c in left.instances]
        self.concepts2 = [c for _, _, c in right.instances]
        self.index2 = {v: j for j, v in enumerate(self.vars2)}
        index1 = {v: i for i, v in enumerate(self.vars1)}
        unary1, pairs1 = _split_triples(left, index1)
        unary2, pairs2 = _split_triples(right, self.index2)

        holders: dict = {}
        for j, forms in enumerate(unary2):
            for form, count in forms.items():
                holders.setdefault(form, []).append((j, count))
        self.unary: list[dict[int, int]] = []
        for forms in unary1:
            weights: dict[int, int] = {}
            for form, count in forms.items():
                for j, other in holders.get(form, ()):
                    weights[j] = weights.get(j, 0) + min(count, other)
            self.unary.append(weights)

        carriers: dict[str, list] = {}
        for (j, k), labels in pairs2.items():
            for label, count in labels.items():
                carriers.setdefault(label, []).append((j, k, count))
        self.links: list[dict[int, dict[int, dict[int, int]]]] = [
            {} for _ in self.vars1
        ]
        for (v, w), labels in pairs1.items():
            forward = self.links[v].setdefault(w, {})
            backward = self.links[w].setdefault(v, {})
            for label, count in labels.items():
                for j, k, other in carriers.get(label, ()):
                    weight = min(count, other)
                    row = forward.setdefault(k, {})
                    row[j] = row.get(j, 0) + weight
                    row = backward.setdefault(j, {})
                    row[k] = row.get(k, 0) + weight

    def images(self, mapping: dict[str, str | None]) -> list[int | None]:
        index2 = self.index2
        return [
            None if mapping.get(v) is None else index2[mapping[v]] for v in self.vars1
        ]

    def mapping(self, images) -> dict[str, str | None]:
        vars2 = self.vars2
        return {
            v: None if j is None else vars2[j] for v, j in zip(self.vars1, images)
        }

    def count(self, images) -> int:
        """Matched triples under an injective mapping."""
        total = 0
        for v, j in enumerate(images):
            if j is None:
                continue
            total += self.unary[v].get(j, 0)
            for w, table in self.links[v].items():
                if w > v:
                    total += table.get(images[w], _NO_MATCHES).get(j, 0)
        return total


def _split_triples(triples: TripleSet, index: dict[str, int]):
    """Per-variable counters of unary forms, and per ordered variable pair
    counters of relation labels."""
    unary: list[Counter] = [Counter() for _ in index]
    for kind, group in (("i", triples.instances), ("a", triples.attributes)):
        for first, rel, value in group:
            unary[index[first]][(kind, rel, value)] += 1
    pairs: dict[tuple[int, int], Counter] = {}
    for first, rel, third in triples.relations:
        if first == third:
            unary[index[first]][("r", rel)] += 1
        else:
            pairs.setdefault((index[first], index[third]), Counter())[rel] += 1
    return unary, pairs


class _Position:
    """One mapping of a climb, with what is needed to score its moves.

    ``reach[v]`` gives, for every right variable where left variable ``v``
    could match something, the matches it would have there with all other
    variables held in place; ``current[v]`` is what it matches where it
    stands.  A reassignment's or swap's gain then costs a few lookups.
    """

    def __init__(self, context: _MatchContext, images: list[int | None]):
        self.context = context
        self.images = images
        self.holder = {j: v for v, j in enumerate(images) if j is not None}
        self.reach: list[dict[int, int]] = []
        for unary, links in zip(context.unary, context.links):
            reach = dict(unary)
            for w, table in links.items():
                row = table.get(images[w])
                if row:
                    for j, weight in row.items():
                        reach[j] = reach.get(j, 0) + weight
            self.reach.append(reach)
        self.current = [reach.get(j, 0) for reach, j in zip(self.reach, images)]

    def _link(self, v: int, w: int, at_v, at_w) -> int:
        table = self.context.links[v].get(w)
        if table is None:
            return 0
        return table.get(at_w, _NO_MATCHES).get(at_v, 0)

    def reassign(self, v: int, j: int | None):
        """Gain and changes of moving ``v`` to ``j``, evicting ``j``'s holder."""
        gain = self.reach[v].get(j, 0) - self.current[v]
        owner = self.holder.get(j)
        if owner is None:
            return gain, ((v, j),)
        gain -= self.current[owner] - self._link(v, owner, self.images[v], j)
        return gain, ((v, j), (owner, None))

    def swap(self, v: int, w: int):
        """Gain and changes of exchanging the images of ``v`` and ``w``."""
        at_v, at_w = self.images[v], self.images[w]
        gain = (
            self.reach[v].get(at_w, 0)
            + self.reach[w].get(at_v, 0)
            + self._link(v, w, at_w, at_v)
            + self._link(v, w, at_v, at_w)
            - self.current[v]
            - self.current[w]
        )
        return gain, ((v, at_w), (w, at_v))

    def moves(self):
        """Every reassignment, then every swap, with its gain, in search order."""
        images = self.images
        targets = [*range(len(self.context.vars2)), None]
        for v, at in enumerate(images):
            for j in targets:
                if j != at:
                    yield self.reassign(v, j)
        for v, w in itertools.combinations(range(len(images)), 2):
            if images[v] != images[w]:
                yield self.swap(v, w)

    def best_move(self):
        """The first move in search order with the largest positive gain.

        Only moves whose new side can match something are scored: a
        variable's reach, and swaps with the holders of its reach or with
        its neighbours.  Any other move gives up what the moved variables
        match and gains nothing, so its gain is at most 0 and it cannot be
        the strictly best.  Reach is walked in right-variable order, so the
        first-best move is the one the full order would pick.
        """
        images, holder = self.images, self.holder
        best_gain, best = 0, None
        swaps = set()
        for v, reach in enumerate(self.reach):
            for j in sorted(reach):
                owner = holder.get(j)
                if owner == v:
                    continue
                gain, changes = self.reassign(v, j)
                if gain > best_gain:
                    best_gain, best = gain, changes
                if owner is not None:
                    swaps.add((v, owner) if v < owner else (owner, v))
            swaps.update((v, w) for w in self.context.links[v] if w > v)
        for v, w in sorted(swaps):
            if images[v] != images[w]:
                gain, changes = self.swap(v, w)
                if gain > best_gain:
                    best_gain, best = gain, changes
        return best_gain, best


def _applied(images, changes) -> list[int | None]:
    images = list(images)
    for v, j in changes:
        images[v] = j
    return images


def _name_seed(context: _MatchContext) -> list[int | None]:
    return [context.index2.get(v) for v in context.vars1]


def _greedy_seed(context: _MatchContext) -> list[int | None]:
    """Match same-concept variables first; the rest stay unmapped."""
    pool: dict[str, list[int]] = {}
    for j, concept in enumerate(context.concepts2):
        pool.setdefault(concept, []).append(j)
    taken: set[int] = set()
    images: list[int | None] = []
    for concept in context.concepts1:
        options = [j for j in pool.get(concept, ()) if j not in taken]
        if options:
            images.append(options[0])
            taken.add(options[0])
        else:
            images.append(None)
    return images


def _random_seed(context: _MatchContext, rng) -> list[int | None]:
    size = len(context.vars1)
    targets: list[int | None] = list(range(len(context.vars2)))
    if len(targets) < size:
        targets += [None] * (size - len(targets))
    rng.shuffle(targets)
    return targets[:size]


def _hill_climb(
    context: _MatchContext,
    restarts: int,
    rng: random.Random,
    extra_seeds=(),
):
    seeds = [_name_seed(context), _greedy_seed(context)]
    seeds.extend(context.images(seed) for seed in extra_seeds)

    climbs = max(restarts, len(seeds))
    best_score = -1
    best_images: list[int | None] = [None] * len(context.vars1)
    for attempt in range(climbs):
        if attempt < len(seeds):
            images = seeds[attempt]
        else:
            images = _random_seed(context, rng)
        score, images = _climb_once(context, images)
        if score > best_score:
            best_score = score
            best_images = images
    return best_score, context.mapping(best_images)


_SIDEWAYS_BUDGET = 8  # plateau steps allowed per climb before giving up


def _climb_once(context, images):
    position = _Position(context, images)
    score = context.count(images)
    sideways = _SIDEWAYS_BUDGET
    visited = {tuple(images)}
    while True:
        gain, changes = position.best_move()
        if changes is None and sideways > 0:
            # Stuck on a plateau: take an unvisited equal-score step, a few times.
            for gain, candidate in position.moves():
                if gain == 0 and tuple(_applied(images, candidate)) not in visited:
                    changes = candidate
                    sideways -= 1
                    break
        if changes is None:
            return score, images
        images = _applied(images, changes)
        visited.add(tuple(images))
        score += gain
        position = _Position(context, images)


def _scored_smatch(
    left: TripleSet, right: TripleSet, restarts: int, rng, extra_seeds=()
) -> SmatchResult:
    context = _MatchContext(left, right)
    matched, mapping = _hill_climb(context, restarts, rng, extra_seeds)
    return _result(matched, left.total, right.total, mapping)


def _base_smatch(graph1: AmrGraph, graph2: AmrGraph, restarts: int, seed: int):
    """Each graph validated once, as triples, and their Smatch result."""
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    left, right = to_triples(graph1), to_triples(graph2)
    return left, right, _scored_smatch(left, right, restarts, random.Random(seed))


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
    return _base_smatch(graph1, graph2, restarts, seed)[2]


def smatch_oracle(graph1: AmrGraph, graph2: AmrGraph) -> SmatchResult:
    """Globally optimal matched count by exhausting injective mappings.

    Only feasible for small graphs: the smaller variable set must have at
    most eight variables.
    """
    left, right = to_triples(graph1), to_triples(graph2)
    n1, n2 = len(graph1.nodes), len(graph2.nodes)
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
    return _result(best, left.total, right.total, context.mapping(best_images))


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


def _reentrant_edges(graph: AmrGraph):
    in_degree = Counter(t for _, _, t in graph.edges)
    return tuple(e for e in graph.edges if in_degree[e[2]] > 1)


def _srl_edges(graph: AmrGraph):
    return tuple(e for e in graph.edges if _SRL_RE.match(e[1]))


def _restricted(graph: AmrGraph, edges) -> TripleSet:
    # Instance triples anchor the mapping; attributes and TOP are dropped.
    return TripleSet(
        instances=tuple((n, INSTANCE, c) for n, c in graph.nodes.items()),
        attributes=(),
        relations=tuple(edges),
    )


def _multiset_f(left: Counter, right: Counter) -> SmatchResult | None:
    if not right:
        return None  # reported as absent, never 0 or 1
    matched = sum(min(count, right.get(item, 0)) for item, count in left.items())
    return _result(matched, sum(left.values()), sum(right.values()), {})


def _concept_multiset(graph: AmrGraph) -> Counter:
    return Counter(graph.nodes.values())


def _wiki_multiset(graph: AmrGraph) -> Counter:
    return Counter(v for _, r, v in graph.attributes if r == ":wiki")


def _negation_multiset(graph: AmrGraph) -> Counter:
    marks = Counter()
    for s, r, v in graph.attributes:
        if r == ":polarity":
            marks[(graph.nodes[s], v)] += 1
    for s, r, t in graph.edges:
        if r == ":polarity":
            marks[(graph.nodes[s], graph.nodes[t])] += 1
    return marks


def _name_multiset(graph: AmrGraph) -> Counter:
    attrs_by_node: dict[str, list] = {}
    for s, r, v in graph.attributes:
        attrs_by_node.setdefault(s, []).append((r, v))
    names = Counter()
    for s, r, t in graph.edges:
        if r == ":name":
            signature = (
                graph.nodes[s],
                graph.nodes[t],
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
    left, right, base = _base_smatch(graph1, graph2, restarts, seed)
    rng = random.Random(seed)
    base_seed = (base.mapping,)

    results: dict[str, SmatchResult | None] = {"smatch": base}
    results["unlabeled"] = _scored_smatch(
        _unlabeled(left), _unlabeled(right), restarts, rng, base_seed
    )
    results["no_wsd"] = _scored_smatch(
        _no_wsd(left), _no_wsd(right), restarts, rng, base_seed
    )
    results["concepts"] = _multiset_f(
        _concept_multiset(graph1), _concept_multiset(graph2)
    )
    results["wikification"] = _multiset_f(
        _wiki_multiset(graph1), _wiki_multiset(graph2)
    )
    results["ner"] = _multiset_f(_name_multiset(graph1), _name_multiset(graph2))
    results["negation"] = _multiset_f(
        _negation_multiset(graph1), _negation_multiset(graph2)
    )

    reentrant2 = _reentrant_edges(graph2)
    if reentrant2:
        results["reentrancy"] = _scored_smatch(
            _restricted(graph1, _reentrant_edges(graph1)),
            _restricted(graph2, reentrant2),
            restarts,
            rng,
            base_seed,
        )
    else:
        results["reentrancy"] = None

    srl2 = _srl_edges(graph2)
    if srl2:
        results["srl"] = _scored_smatch(
            _restricted(graph1, _srl_edges(graph1)),
            _restricted(graph2, srl2),
            restarts,
            rng,
            base_seed,
        )
    else:
        results["srl"] = None
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
    return _result(matched, left_total, right_total, {})


@dataclass(frozen=True)
class BleuResult:
    score: float
    precisions: tuple[float, ...]
    brevity_penalty: float
    hypothesis_length: int
    reference_length: int


def corpus_bleu_details(
    hypotheses: list[list[str]], references: list[list[str]], max_order: int = 4
) -> BleuResult:
    """Corpus-level BLEU with uniform n-gram weights and no smoothing.

    Tokens are compared as given; modified n-gram counts are clipped per
    pair and pooled over the corpus before the geometric mean, and the
    brevity penalty uses pooled lengths.
    """
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise ValueError("at least one hypothesis/reference pair is required")

    numerators = [0] * max_order
    denominators = [0] * max_order
    hyp_length = 0
    ref_length = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_length += len(hyp)
        ref_length += len(ref)
        for order in range(1, max_order + 1):
            hyp_ngrams = Counter(_ngrams(hyp, order))
            ref_ngrams = Counter(_ngrams(ref, order))
            clipped = sum(
                min(count, ref_ngrams.get(gram, 0))
                for gram, count in hyp_ngrams.items()
            )
            numerators[order - 1] += clipped
            denominators[order - 1] += max(len(hyp) - order + 1, 0)

    precisions = tuple(
        numerators[i] / denominators[i] if denominators[i] else 0.0
        for i in range(max_order)
    )
    if hyp_length == 0:
        brevity_penalty = 0.0
    elif hyp_length > ref_length:
        brevity_penalty = 1.0
    else:
        brevity_penalty = math.exp(1.0 - ref_length / hyp_length)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        log_mean = sum(math.log(p) for p in precisions) / max_order
        score = brevity_penalty * math.exp(log_mean)
    return BleuResult(
        score=score,
        precisions=precisions,
        brevity_penalty=brevity_penalty,
        hypothesis_length=hyp_length,
        reference_length=ref_length,
    )


def corpus_bleu(hypotheses: list[list[str]], references: list[list[str]]) -> float:
    return corpus_bleu_details(hypotheses, references).score


def _ngrams(toks: list[str], order: int):
    return (tuple(toks[i : i + order]) for i in range(len(toks) - order + 1))
