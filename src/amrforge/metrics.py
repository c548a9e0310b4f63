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
entries.

One climb keeps one :class:`_Position` and updates it in place.  A move
sets the images of one or two variables (a reassignment and the holder
it evicts, or a swapped pair); only their linked neighbours' reach
changes, so only moves that read what changed are rescored.  Each step
takes the first move with the largest gain in the order of the full move
list (every reassignment, then every swap), and a plateau step takes the
first unvisited move of gain 0 in that order.  Keeping that tie order
keeps every score and mapping the same as a search that rescored the
whole list after each step.
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
_BLEU_ORDER = 4

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
    """One mapping of a climb, kept up to date as the climb moves.

    ``reach[v]`` gives, for every right variable where left variable ``v``
    could match something, the matches it would have there with all other
    variables held in place; ``current[v]`` is what it matches where it
    stands, and ``watchers[j]`` is the set of variables with ``j`` in their
    reach.  A reassignment's gain then costs a few lookups, and so does a
    swap's; :meth:`_reassign_gain` and :meth:`_swap_gain` are the only
    place that arithmetic lives.

    The position also keeps the moves worth taking: ``gains[v]`` and
    ``targets[v]`` are ``v``'s first-best positive reassignment (gain 0
    and target ``None`` if it has none), and ``swaps`` maps each pair
    ``(v, w)``, ``v < w``, whose swap has a positive gain to that gain;
    ``partners[v]`` lists the variables ``v`` has such a pair with.  Only
    moves whose new side can match something can gain: a reassignment
    into ``v``'s reach, or a swap of ``v`` with the holder of something in
    its reach, with a watcher of its image or with a linked neighbour.
    Any other move gives up what the moved variables match and gains
    nothing.

    :meth:`apply` sets the images of the one or two moved variables.  The
    ``reach`` of their linked neighbours changes by one table row each, so
    ``current`` changes only for the moved variables and those neighbours,
    the *touched* set.  A reassignment's gain reads its variable's reach,
    image and current, and the holder of its target and that holder's
    current, so only the *dirty* variables are rescored: the touched ones
    and the watchers of their images and of the moved variables' old
    images.  A swap's gain reads only the reach, current and image of its
    two variables, so only the swaps that involve a touched variable are
    dropped and rescored.

    :meth:`best_move` breaks ties as a scan of the full move list would,
    so the climb takes the same steps, and ends with the same score and
    mapping, as a search that rescored every move after every step.
    """

    def __init__(self, context: _MatchContext, images: list[int | None]):
        self.context = context
        self.images = images
        self.holder = {j: v for v, j in enumerate(images) if j is not None}
        self.reach: list[dict[int, int]] = []
        self.watchers: list[set[int]] = [set() for _ in context.vars2]
        for v, (unary, links) in enumerate(zip(context.unary, context.links)):
            reach = dict(unary)
            for w, table in links.items():
                row = table.get(images[w])
                if row:
                    for j, weight in row.items():
                        reach[j] = reach.get(j, 0) + weight
            self.reach.append(reach)
            for j in reach:
                self.watchers[j].add(v)
        self.current = [reach.get(j, 0) for reach, j in zip(self.reach, images)]
        self.gains = [0] * len(images)
        self.targets: list[int | None] = [None] * len(images)
        self.swaps: dict[tuple[int, int], int] = {}
        self.partners: list[set[int]] = [set() for _ in images]
        everyone = set(range(len(images)))
        self._rescore(everyone, everyone)

    def apply(self, changes) -> None:
        """Move each ``(v, j)`` of ``changes`` and rescore what that touched."""
        images, holder, reach, watchers = (
            self.images, self.holder, self.reach, self.watchers
        )
        links = self.context.links
        moved = [(v, images[v], j) for v, j in changes]
        for v, old, _ in moved:
            if old is not None and holder.get(old) == v:
                del holder[old]
        for v, _, new in moved:
            images[v] = new
            if new is not None:
                holder[new] = v
        touched = set()
        for v, old, new in moved:
            touched.add(v)
            for w in links[v]:
                touched.add(w)
                table, reach_w = links[w][v], reach[w]
                row = table.get(old)
                if row:
                    for j, weight in row.items():
                        left = reach_w[j] - weight
                        if left:
                            reach_w[j] = left
                        else:
                            del reach_w[j]
                            watchers[j].discard(w)
                row = table.get(new)
                if row:
                    for j, weight in row.items():
                        if j in reach_w:
                            reach_w[j] += weight
                        else:
                            reach_w[j] = weight
                            watchers[j].add(w)
        current = self.current
        dirty = set(touched)
        for t in touched:
            at = images[t]
            if at is None:
                current[t] = 0
            else:
                current[t] = reach[t].get(at, 0)
                dirty |= watchers[at]
        for _, old, _ in moved:
            if old is not None:
                dirty |= watchers[old]
        self._rescore(dirty, touched)

    def _rescore(self, dirty: set[int], touched: set[int]) -> None:
        images, reach, current = self.images, self.reach, self.current
        gains, targets = self.gains, self.targets
        for v in dirty:
            at, now = images[v], current[v]
            best_gain, best = 0, None
            for j, weight in reach[v].items():
                most = weight - now  # evicting a holder never adds to the gain
                # first-best in target order, as a scan in that order finds it;
                # a move that could not win even at its most is not scored
                if j != at and (most > best_gain or most == best_gain > 0 and j < best):
                    gain, _ = self._reassign_gain(v, j)
                    if gain > best_gain or gain == best_gain > 0 and j < best:
                        best_gain, best = gain, j
            gains[v], targets[v] = best_gain, best

        swaps, partners = self.swaps, self.partners
        for t in touched:
            for p in partners[t]:
                del swaps[(t, p) if t < p else (p, t)]
                partners[p].discard(t)
            partners[t].clear()
        for t in touched:
            at_t = images[t]
            for p in self._swap_candidates(t):
                if p == t or images[p] == at_t or (p < t and p in touched):
                    continue  # not a move, or scored from p's side
                gain = self._swap_gain(t, p)
                if gain > 0:
                    swaps[(t, p) if t < p else (p, t)] = gain
                    partners[t].add(p)
                    partners[p].add(t)

    def _reassign_gain(self, v: int, j: int | None) -> tuple[int, int | None]:
        """The gain of moving ``v`` to ``j``, and the holder it evicts."""
        current = self.current
        gain = self.reach[v].get(j, 0) - current[v]
        owner = self.holder.get(j)
        if owner is not None:
            table = self.context.links[v].get(owner, _NO_MATCHES)
            gain -= current[owner] - table.get(j, _NO_MATCHES).get(self.images[v], 0)
        return gain, owner

    def _swap_gain(self, v: int, w: int) -> int:
        """The gain of exchanging the images of ``v`` and ``w``."""
        images, reach, current = self.images, self.reach, self.current
        at_v, at_w = images[v], images[w]
        gain = reach[v].get(at_w, 0) + reach[w].get(at_v, 0) - current[v] - current[w]
        table = self.context.links[v].get(w)
        if table:
            gain += table.get(at_v, _NO_MATCHES).get(at_w, 0)
            gain += table.get(at_w, _NO_MATCHES).get(at_v, 0)
        return gain

    def _swap_candidates(self, v: int) -> set[int]:
        """The variables a swap with ``v`` can gain from: the holders of its
        reach, the watchers of its image and its linked neighbours."""
        holder = self.holder
        others = {holder[j] for j in self.reach[v] if j in holder}
        others.update(self.context.links[v])
        if self.images[v] is not None:
            others |= self.watchers[self.images[v]]
        return others

    def best_move(self):
        """The first move in search order with the largest positive gain.

        Search order is every reassignment, by variable and then target,
        then every swap, by pair.  The first-best reassignment is the
        first variable's with the largest kept gain; a swap replaces it
        only if strictly better, and among equal swaps the first pair
        wins.  Ties therefore break as a scan of the full order breaks them.
        """
        gains = self.gains
        best_gain, best = max(gains, default=0), None
        if best_gain > 0:
            v = gains.index(best_gain)
            j = self.targets[v]
            best = _reassignment(v, j, self.holder.get(j))
        if self.swaps:
            top = max(self.swaps.values())
            if top > best_gain:
                v, w = min(pair for pair, gain in self.swaps.items() if gain == top)
                best_gain = top
                best = ((v, self.images[w]), (w, self.images[v]))
        return best_gain, best

    def sideways(self, visited):
        """The first move in search order that gains 0 and whose mapping is
        not in ``visited``, or ``None``.

        A variable that matches something loses it by any move that offers
        it nothing in return, so for such a variable only the targets in
        its reach and the swaps it could gain from are scored; every move
        left out has a negative gain.
        """
        images, reach, current = self.images, self.reach, self.current
        targets = [*range(len(self.context.vars2)), None]
        for v, at in enumerate(images):
            for j in sorted(reach[v]) if current[v] else targets:
                if j == at:
                    continue
                gain, owner = self._reassign_gain(v, j)
                changes = _reassignment(v, j, owner)
                if gain == 0 and tuple(_applied(images, changes)) not in visited:
                    return changes
        for v, at_v in enumerate(images):
            if current[v]:
                others = sorted(w for w in self._swap_candidates(v) if w > v)
            else:
                others = range(v + 1, len(images))
            for w in others:
                at_w = images[w]
                if at_v == at_w:
                    continue
                changes = ((v, at_w), (w, at_v))
                if self._swap_gain(v, w) == 0 and (
                    tuple(_applied(images, changes)) not in visited
                ):
                    return changes
        return None


def _reassignment(v: int, j: int | None, owner: int | None):
    """The changes that move ``v`` to ``j`` and unmap its holder ``owner``."""
    return ((v, j),) if owner is None else ((v, j), (owner, None))


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


_SIDEWAYS_BUDGET = 8  # plateau steps allowed per climb before giving up


def _climb_once(context, images):
    position = _Position(context, list(images))
    score = context.count(images)
    sideways = _SIDEWAYS_BUDGET
    visited = {tuple(images)}
    while True:
        gain, changes = position.best_move()
        if changes is None and sideways > 0:
            # Stuck on a plateau: take an unvisited equal-score step, a few times.
            changes = position.sideways(visited)
            if changes is not None:
                sideways -= 1
        if changes is None:
            return score, position.images
        position.apply(changes)
        visited.add(tuple(position.images))
        score += gain


def _scored_smatch(
    left: TripleSet, right: TripleSet, restarts: int, rng, extra_seeds=()
) -> SmatchResult:
    """The best climb from the name, greedy and ``extra_seeds`` mappings,
    then from random ones up to ``restarts`` climbs."""
    context = _MatchContext(left, right)
    seeds = [_name_seed(context), _greedy_seed(context)]
    seeds.extend(context.images(seed) for seed in extra_seeds)
    best_score, best_images = -1, [None] * len(context.vars1)
    for attempt in range(max(restarts, len(seeds))):
        if attempt < len(seeds):
            images = seeds[attempt]
        else:
            images = _random_seed(context, rng)
        score, images = _climb_once(context, images)
        if score > best_score:
            best_score, best_images = score, images
    return _result(best_score, left.total, right.total, context.mapping(best_images))


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


def smatch_oracle(graph1: AmrGraph, graph2: AmrGraph) -> SmatchResult:
    """Globally optimal matched count by exhausting injective mappings.

    Only feasible for small graphs: the smaller variable set must have at
    most eight variables.
    """
    left, right = to_triples(graph1), to_triples(graph2)
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
    return _result(matched, sum(left.values()), sum(right.values()), {})


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
    attrs_by_node: dict[str, list] = {}
    for s, r, v in triples.attributes:
        attrs_by_node.setdefault(s, []).append((r, v))
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
    return _result(matched, left_total, right_total, {})


@dataclass(frozen=True)
class BleuResult:
    score: float
    precisions: tuple[float, ...]
    brevity_penalty: float
    hypothesis_length: int
    reference_length: int


def corpus_bleu_details(
    hypotheses: list[list[str]], references: list[list[str]]
) -> BleuResult:
    """Corpus-level BLEU up to 4-grams with uniform weights and no smoothing.

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

    numerators = [0] * _BLEU_ORDER
    denominators = [0] * _BLEU_ORDER
    hyp_length = 0
    ref_length = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_length += len(hyp)
        ref_length += len(ref)
        for order in range(1, _BLEU_ORDER + 1):
            hyp_ngrams = Counter(_ngrams(hyp, order))
            ref_ngrams = Counter(_ngrams(ref, order))
            clipped = sum(
                min(count, ref_ngrams.get(gram, 0))
                for gram, count in hyp_ngrams.items()
            )
            numerators[order - 1] += clipped
            denominators[order - 1] += max(len(hyp) - order + 1, 0)

    precisions = tuple(n / d if d else 0.0 for n, d in zip(numerators, denominators))
    if hyp_length == 0:
        brevity_penalty = 0.0
    elif hyp_length > ref_length:
        brevity_penalty = 1.0
    else:
        brevity_penalty = math.exp(1.0 - ref_length / hyp_length)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        log_mean = sum(math.log(p) for p in precisions) / _BLEU_ORDER
        score = brevity_penalty * math.exp(log_mean)
    return BleuResult(
        score=score,
        precisions=precisions,
        brevity_penalty=brevity_penalty,
        hypothesis_length=hyp_length,
        reference_length=ref_length,
    )


def _ngrams(toks: list[str], order: int):
    return (tuple(toks[i : i + order]) for i in range(len(toks) - order + 1))
