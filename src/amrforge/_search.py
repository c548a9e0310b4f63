"""The variable-mapping search behind Smatch.

:func:`best_mapping` searches the tables of two ``metrics.TripleSet``
objects (a :class:`_MatchContext`) and returns the matched count with the
mapping, which ``metrics`` turns into scores; it does not import ``metrics``.

As in Cai & Knight's ``smatch.py`` (ACL 2013), mappings are scored from
integer weight tables built once per graph pair: one for what a single
variable matches at each target, one for what the relations between two
adjacent variables match at each target pair, shared by every variable
pair with the same labels.  The mappings the search visits are injective,
which makes this split of the matched count exact (see
:class:`_MatchContext`), so a move's gain is a sum of a few table entries.
A fine-grained re-run's context takes the base pair's variable numbering,
and the tables of the triples its rewrite passes through on both sides, as
they are.

The search is hill-climbing over single reassignments and pairwise swaps
from a sequence of start mappings.  One climb keeps one :class:`_Position`
and updates it in place.  A move sets the images of one or two variables
(a reassignment and the holder it evicts, or a swapped pair); only their
linked neighbours' reach changes, so only moves that read what changed
are rescored: any other variable rescores only its moves to the images
that changed.  Each step takes the first move with the largest gain in
the order of the full move list (every reassignment, then every swap),
so a swap that gains what one side's reassignment gains is never taken,
and never scored.  A plateau step takes the first unvisited move of gain
0 in that order.  Keeping that tie order keeps every score and mapping
the same as a search that rescored the whole list after each step.

No injective mapping matches more than each variable's best unary entry
plus each linked pair's best pairwise entry: the context's ceiling, the
root bound of exact solvers such as Smatch++.  The search climbs a
caller's seeds, the greedy start (first, as in ``smatch.py``), the name
start, then the random starts drawn before its first climb, and stops at
the first climb that reaches the ceiling: in either start order every
count is the full search's; only which best mapping comes first differs.
"""

from __future__ import annotations

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
    where a variable can match anything; scoring a move sums a few entries
    (see :class:`_Position`).  ``ceiling`` sums each variable's and each
    linked pair's largest entry; ``link_ceiling`` is the links' part.
    ``links[v][w]`` depends only on the labels between ``v`` and ``w``, so
    all pairs with the same labels in both directions share one dict, and
    their ``links[w][v]`` one transpose.  ``instances[v]`` is the instance
    part of ``unary[v]``: the right variables of ``v``'s concept.  A
    variant pair's context takes from ``base``, the context of the pair it
    varies, the variable numbering (``vars1``, ``vars2`` and both index maps),
    ``instances`` if both sides' ``instances`` are ``base.left``'s and
    ``base.right``'s own tuples, and ``links`` with ``link_ceiling`` if both
    ``relations`` are.  The tables are shared, and nothing writes to them.
    """

    def __init__(self, left, right, base=None):
        self.left, self.right = left, right
        if base is None:
            self.vars1 = [v for v, _, _ in left.instances]
            self.vars2 = [v for v, _, _ in right.instances]
            self.index1 = {v: i for i, v in enumerate(self.vars1)}
            self.index2 = {v: j for j, v in enumerate(self.vars2)}
            same_instances = same_relations = False
        else:  # a variant keeps the instance variables, in order
            self.vars1, self.vars2 = base.vars1, base.vars2
            self.index1, self.index2 = base.index1, base.index2
            same_instances = (left.instances is base.left.instances
                              and right.instances is base.right.instances)
            same_relations = (left.relations is base.left.relations
                              and right.relations is base.right.relations)
        unary1, pairs1 = _split_triples(left, self.index1, not same_relations)
        unary2, pairs2 = _split_triples(right, self.index2, not same_relations)
        if same_instances:
            self.instances = base.instances
        else:  # one instance triple per variable, so each weight is 1
            holders: dict = {}
            for j, (_, _, concept) in enumerate(right.instances):
                holders.setdefault(concept, []).append(j)
            self.instances = [dict.fromkeys(holders.get(c, ()), 1)
                              for _, _, c in left.instances]
        holders = {}
        for j, forms in enumerate(unary2):
            for form, count in forms.items():
                holders.setdefault(form, []).append((j, count))
        self.unary: list[dict[int, int]] = []
        ceiling = 0  # each variable's best unary entry, summed as it is built
        for weights, forms in zip(self.instances, unary1):
            if forms:  # else the instance weights themselves, each 1
                weights = dict(weights)
                for form, count in forms.items():
                    for j, other in holders.get(form, ()):
                        weights[j] = weights.get(j, 0) + min(count, other)
            ceiling += max(weights.values(), default=0) if forms else bool(weights)
            self.unary.append(weights)
        if same_relations:
            self.links, self.link_ceiling = base.links, base.link_ceiling
        else:
            carriers: dict[str, list] = {}
            for (j, k), labels in pairs2.items():
                for label, count in labels.items():
                    carriers.setdefault(label, []).append((j, k, count))
            self.links, self.link_ceiling = [{} for _ in self.vars1], 0
            groups: dict[tuple, tuple[dict, dict, int]] = {}  # by labels both ways
            for v, w in pairs1:
                if w in self.links[v]:
                    continue  # built with (w, v)
                key = (frozenset(pairs1[v, w].items()),
                       frozenset(pairs1.get((w, v), _NO_MATCHES).items()))
                if key not in groups:
                    groups[key] = _pair_tables(*key, carriers)
                forward, backward, best = groups[key]
                self.links[v][w], self.links[w][v] = forward, backward
                self.link_ceiling += best
        self.ceiling = self.link_ceiling + ceiling

    def images(self, mapping: dict[str, str]) -> list[int | None]:
        return [self.index2.get(mapping.get(v)) for v in self.vars1]

    def mapping(self, images) -> dict[str, str]:
        return {v: self.vars2[j] for v, j in zip(self.vars1, images) if j is not None}

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


def _split_triples(triples: TripleSet, index: dict[str, int], links: bool):
    """Per-variable counts of attribute and self-loop forms, and per
    ordered variable pair counts of relation labels (none unless ``links``)."""
    unary: list[dict] = [{} for _ in index]
    for first, rel, value in triples.attributes:
        forms, form = unary[index[first]], ("a", rel, value)
        forms[form] = forms.get(form, 0) + 1
    pairs: dict[tuple[int, int], dict[str, int]] = {}
    for first, rel, third in triples.relations:
        if first == third:
            forms, form = unary[index[first]], ("r", rel)
        elif links:
            forms, form = pairs.setdefault((index[first], index[third]), {}), rel
        else:
            continue
        forms[form] = forms.get(form, 0) + 1
    return unary, pairs


def _pair_tables(outgoing, incoming, carriers):
    """``links[v][w]`` for left relations from ``v`` to ``w`` with the
    ``(label, count)`` items ``outgoing`` and back with ``incoming``, its
    transpose ``links[w][v]``, and its largest entry (0 if nothing matches)."""
    forward: dict[int, dict[int, int]] = {}
    backward: dict[int, dict[int, int]] = {}
    for labels, (by_target, by_source) in (
        (outgoing, (forward, backward)), (incoming, (backward, forward))
    ):
        for label, count in labels:
            for j, k, other in carriers.get(label, ()):
                weight = min(count, other)
                row = by_target.setdefault(k, {})
                row[j] = row.get(j, 0) + weight
                row = by_source.setdefault(j, {})
                row[k] = row.get(k, 0) + weight
    best = max((max(row.values()) for row in forward.values()), default=0)
    return forward, backward, best


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
    and target ``None`` if it has none), and only one into ``v``'s reach
    can gain.  ``swaps`` maps each pair ``(v, w)``, ``v < w``, whose swap
    can win to its positive gain; ``partners[v]`` lists the variables
    ``v`` has such a pair with.  A swap can win only if each side holds an
    image in the other's reach, or if their link table matches at the
    swapped images (``links[v][w][images[v]][images[w]]``).  Otherwise
    one side, say ``v``, matches nothing at ``w``'s image, and the swap
    gains what moving ``w`` to ``v``'s image and evicting ``v`` gains: at
    most ``gains[w]``, or nothing.  :meth:`best_move` takes a swap only if
    it beats every reassignment, so such a swap, and so every swap with an
    unmapped side, is never taken.  :meth:`sideways` takes swaps of gain
    0, so it scores every swap in :meth:`_swap_candidates`.

    :meth:`apply` sets the images of the one or two moved variables.  The
    ``reach`` of their linked neighbours changes by one table row each, so
    ``current`` changes only for the moved variables and those neighbours,
    the *touched* set, whose moves are all rescored.  Any other variable's
    reassignment to ``j`` reads its unchanged reach, image and current,
    and the holder of ``j`` and that holder's current.  So its gain changes
    only if ``j`` is a *changed* image: a touched variable's image or a
    moved variable's old one.  A watcher of a changed image keeps its best
    move and rescores only its moves to changed images, unless its kept
    best target is one of them: then that best may have lost gain, and its
    whole reach is rescanned.  A swap's gain reads only the reach, current
    and image of its two variables, so only the swaps that involve a
    touched variable are dropped and rescored.

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
        self._rescore(set(range(len(images))), set())

    def apply(self, changes) -> None:
        """Move each ``(v, j)`` of ``changes`` and rescore what that touched."""
        images, holder, reach = self.images, self.holder, self.reach
        watchers, links = self.watchers, self.context.links
        moved = [(v, images[v], j) for v, j in changes]
        for _, old, _ in moved:  # holder inverts the injective images
            if old is not None:
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
        for t in touched:
            self.current[t] = reach[t].get(images[t], 0)
        changed = {images[t] for t in touched}.union(old for _, old, _ in moved)
        changed.discard(None)
        self._rescore(touched, changed)

    def _rescore(self, touched: set[int], changed: set[int]) -> None:
        images, reach, current = self.images, self.reach, self.current
        watchers, gains, targets = self.watchers, self.gains, self.targets
        rescan, kept = set(touched), []  # the changed-image rule, as above
        for j in changed:
            for w in watchers[j]:
                if targets[w] in changed:
                    rescan.add(w)
                elif w not in touched:
                    kept.append((w, j))
        for v in rescan:
            self._best_reassignment(v, reach[v], 0, None)
        for w, j in kept:
            if reach[w][j] - current[w] >= gains[w]:  # else it cannot win
                self._best_reassignment(w, (j,), gains[w], targets[w])
        swaps, partners, links = self.swaps, self.partners, self.context.links
        for t in touched:
            for p in partners[t]:
                del swaps[(t, p) if t < p else (p, t)]
                partners[p].discard(t)
            partners[t].clear()
        for t in touched:
            at_t, reach_t = images[t], reach[t]
            if at_t is None:
                continue  # a swap with an unmapped side is a reassignment
            others = {p for p in watchers[at_t] if images[p] in reach_t}
            for p, table in links[t].items():
                if images[p] in table.get(at_t, _NO_MATCHES):
                    others.add(p)
            for p in others:
                if p == t or (p < t and p in touched):
                    continue  # not a move, or scored from p's side
                gain = self._swap_gain(t, p)
                if gain > 0:
                    swaps[(t, p) if t < p else (p, t)] = gain
                    partners[t].add(p)
                    partners[p].add(t)

    def _best_reassignment(self, v: int, candidates, best_gain: int, best) -> None:
        """Set ``gains[v]`` and ``targets[v]`` to the first-best of ``best``
        (gain ``best_gain``) and ``v``'s moves to ``candidates``, in reach."""
        at, now, reach = self.images[v], self.current[v], self.reach[v]
        for j in candidates:
            most = reach[j] - now  # evicting a holder never adds to the gain
            # first-best in target order, as a scan in that order finds it;
            # a move that could not win even at its most is not scored
            if j != at and (most > best_gain or most == best_gain > 0 and j < best):
                gain, _ = self._reassign_gain(v, j)
                if gain > best_gain or gain == best_gain > 0 and j < best:
                    best_gain, best = gain, j
        self.gains[v], self.targets[v] = best_gain, best

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
        """For :meth:`sideways`, the variables a swap with ``v`` can gain
        from: the holders of its reach, its image's watchers and its links."""
        holder = self.holder
        others = {holder[j] for j in self.reach[v] if j in holder}
        others.update(self.context.links[v])
        # v matches something where it stands, so it has an image
        return others | self.watchers[self.images[v]]

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
    """Each variable at the first same-concept variable not taken, if any."""
    taken: set[int | None] = {None}
    images: list[int | None] = []
    for weights in context.instances:
        images.append(next((j for j in weights if j not in taken), None))
        taken.add(images[-1])
    return images


def _random_seed(context: _MatchContext, rng) -> list[int | None]:
    size = len(context.vars1)
    targets: list[int | None] = list(range(len(context.vars2)))
    targets += [None] * (size - len(targets))  # none when size <= len(targets)
    rng.shuffle(targets)
    return targets[:size]


_SIDEWAYS_BUDGET = 8  # plateau steps allowed per climb before giving up


def _climb_once(context, images):
    """The score and mapping a climb from ``images`` ends at.  It stops at
    ``context.ceiling``: a start there is returned with no position built."""
    score = context.count(images)
    if score == context.ceiling:
        return score, images
    position = _Position(context, list(images))
    sideways, visited = _SIDEWAYS_BUDGET, {tuple(images)}
    while score < context.ceiling:
        gain, changes = position.best_move()
        if changes is None and sideways > 0:
            # Stuck on a plateau: take an unvisited equal-score step, a few times.
            changes = position.sideways(visited)
            if changes is not None:
                sideways -= 1
        if changes is None:
            break
        position.apply(changes)
        visited.add(tuple(position.images))
        score += gain
    return score, position.images


def _starts(context: _MatchContext, extra_seeds, drawn):
    """The caller's seeds, the greedy and name starts, each built when it
    is reached, then the ``drawn`` random starts."""
    yield from map(context.images, extra_seeds)
    yield _greedy_seed(context)
    yield _name_seed(context)
    yield from drawn


def best_mapping(context: _MatchContext, restarts: int, rng, extra_seeds=()):
    """The matched count and mapping of the best climb over ``context``
    from the start sequence: the ``extra_seeds`` mappings, the greedy and
    name starts, then random ones up to ``restarts`` climbs.  The random
    starts are all drawn from ``rng`` before the first climb, so ``rng``
    ends in the same place however many are climbed; a climb replaces the
    best only when it scores higher, and the search stops after the first
    climb that reaches ``context.ceiling``: the start order moves no count."""
    drawn = [_random_seed(context, rng) for _ in range(restarts - len(extra_seeds) - 2)]
    best_score = -1
    for images in _starts(context, extra_seeds, drawn):
        score, images = _climb_once(context, images)
        if score > best_score:
            best_score, best_images = score, images
        if score == context.ceiling:
            break
    return best_score, context.mapping(best_images)
