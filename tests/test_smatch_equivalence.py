"""Smatch results pinned to a golden fixture, move gains checked against
a plain triple-overlap count, and the climb's kept tables checked against
a freshly built position after every step.

``data/smatch_golden.json`` holds 30 gold/prediction pairs of 5-30 nodes.
Each prediction is its gold graph after seeded node, edge and sub-graph
masking and ``repair``, with some edge labels and senses swapped.  With
each pair the fixture stores the seeded ``fine_grained`` results
(matched and total counts, scores and the mapping), which the search
must reproduce exactly.  The counts were recorded with the earlier
``Counter``-based move scoring; the mappings of the sub-metrics that
re-run the search were re-recorded when they began to climb the base
mapping first, and again when a climb began to stop at the ceiling.
Seven mappings, base ones among them, were re-recorded when the greedy
start began to be climbed before the name start.
Three more pairs pin the order in which ``fine_grained`` draws from its
generator: scoring ``srl`` before ``reentrancy`` changes their ``srl``
counts.  Two more, of 80-120-node gold graphs, pin long climbs that take
sideways steps.  Regenerate it only when a change of results is
intended:

    PYTHONPATH=src python tests/test_smatch_equivalence.py --write

The context's ``links`` tables are shared by every variable pair with
the same labels; they are checked against the per-pair construction the
search used before, and against a deep copy after a search has run, since
a write to one shared table would change every pair that holds it.

A climb stops once it reaches the context's ceiling, and the search
skips the climbs after it; the ceiling is checked against the exhaustive
oracle.  Every ``fine_grained`` search calls ``best_mapping``, and one
reference search patched in there climbs every start that
``_search._starts`` yields, with no ceiling stop: every result, mapping
included, must be the reference's.  A record of each search checks the
rest of the start sequence's rules: the random starts are drawn before
the first climb, a seeded start is built only when it is climbed, the
search stops after the first climb that reaches the ceiling, and no
climb works at it.  Climbing the name start before the greedy one
changes no count, and a renamed copy is certified at its first start.
Each reported mapping is checked against a plain count of what it
matches.  A re-run's context takes a part of the base context; it is
checked against a context built from scratch.  Where
scipy is installed, the MILP optimum of ``conftest.milp_optimum`` is
checked against the oracle and bounds every search variant on the 30
small fixture pairs.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import amrforge._search
import amrforge.metrics
from amrforge import AmrGraph, fine_grained, smatch, synth, to_triples
from amrforge._search import (
    _SIDEWAYS_BUDGET,
    _applied,
    _climb_once,
    _greedy_seed,
    _MatchContext,
    _name_seed,
    _Position,
)
from amrforge.corrupt import CorruptionConfig, corrupt_graph, derive_rng
from amrforge.linearize import delinearize, repair
from amrforge.metrics import SEARCHED_VARIANTS, TripleSet, _no_wsd, _unlabeled

from conftest import (
    document_pair,
    milp_optimum,
    oracle_optimum,
    rename_nodes,
    smatch_oracle,
)

FIXTURE = Path(__file__).parent / "data" / "smatch_golden.json"
FIXTURE_SEED = 2203
PAIRS = 30
NOISE = (
    CorruptionConfig(node_rate=0.3, edge_rate=0.0, subgraph_rate=0.0),
    CorruptionConfig(node_rate=0.0, edge_rate=0.3, subgraph_rate=0.0),
    CorruptionConfig(node_rate=0.0, edge_rate=0.0, subgraph_rate=1.0),
    CorruptionConfig(node_rate=0.2, edge_rate=0.2, subgraph_rate=0.5),
)
# few labels, so multi-edges, label ties and reentrancies are common
RELATIONS = (":ARG0", ":ARG1", ":mod", ":op1", ":name")
# pairs of two-concept graphs on which the sub-metrics' draw order shows,
# found by scoring 400 such pairs both ways
DRAW_ORDER_SEED = 4409
DRAW_ORDER_PAIRS = (1, 227, 316)
# document-sized pairs: long climbs, many of them ending in sideways steps
DOCUMENT_SEED = 1212
DOCUMENT_PAIRS = (1, 3)


def _fixture_pairs(count: int = PAIRS):
    rng = random.Random(FIXTURE_SEED)
    for index in range(count):
        size = 5 + index * 25 // (count - 1)
        gold = synth.random_graph(
            rng, size, size, max_reentrancies=size // 4, attribute_prob=0.2,
            relations=RELATIONS,
        )
        noisy, _ = corrupt_graph(
            gold, NOISE[index % len(NOISE)], derive_rng(FIXTURE_SEED, index)
        )
        predicted = _relabel(
            delinearize(repair(noisy)), derive_rng(FIXTURE_SEED + 1, index)
        )
        yield predicted, gold, (2, 4, 5)[index % 3], index


def _draw_order_pairs():
    noise = CorruptionConfig(node_rate=0.3, edge_rate=0.3, subgraph_rate=0.0)
    for index in DRAW_ORDER_PAIRS:
        rng = random.Random(DRAW_ORDER_SEED * 1000 + index)
        gold = synth.random_graph(
            rng, 8, 30, max_reentrancies=6, concepts=("a", "b"),
            relations=RELATIONS[:3],
        )
        noisy, _ = corrupt_graph(gold, noise, derive_rng(DRAW_ORDER_SEED, index))
        yield delinearize(repair(noisy)), gold, 5, index


def _document_pairs():
    noise = CorruptionConfig(node_rate=0.1, edge_rate=0.1, subgraph_rate=0.0)
    for index in DOCUMENT_PAIRS:
        rng = random.Random(DOCUMENT_SEED * 1000 + index)
        gold = synth.random_graph(
            rng, 80, 120, max_reentrancies=12, attribute_prob=0.2,
            relations=RELATIONS,
        )
        noisy, _ = corrupt_graph(gold, noise, derive_rng(DOCUMENT_SEED, index))
        predicted = _relabel(
            delinearize(repair(noisy)), derive_rng(DOCUMENT_SEED + 1, index)
        )
        yield predicted, gold, 4, index


def _relabel(graph: AmrGraph, rng: random.Random, rate: float = 0.2) -> AmrGraph:
    """Swap some edge labels and concept senses, so the unlabeled and
    no-WSD variants score differently from Smatch."""
    edges = set(graph.edges)
    for source, label, target in graph.edges:
        if rng.random() < rate:
            changed = (source, rng.choice(RELATIONS), target)
            if changed not in edges:
                edges.discard((source, label, target))
                edges.add(changed)
    nodes = {
        node: re.sub(r"-0\d$", rng.choice(("-01", "-02")), concept)
        if rng.random() < rate else concept
        for node, concept in graph.nodes.items()
    }
    return AmrGraph(
        nodes=nodes,
        edges=tuple(sorted(edges, key=lambda edge: (edge[0], edge[2], edge[1]))),
        attributes=graph.attributes,
        root=graph.root,
    )


def _graph_json(graph: AmrGraph) -> dict:
    return {
        "nodes": [list(item) for item in graph.nodes.items()],
        "edges": [list(edge) for edge in graph.edges],
        "attributes": [list(attribute) for attribute in graph.attributes],
        "root": graph.root,
    }


def _graph_from_json(data: dict) -> AmrGraph:
    return AmrGraph(
        nodes=dict(data["nodes"]),
        edges=tuple(map(tuple, data["edges"])),
        attributes=tuple(map(tuple, data["attributes"])),
        root=data["root"],
    )


def _result_json(result) -> dict | None:
    if result is None:
        return None
    return {
        "matched": result.matched,
        "left_total": result.left_total,
        "right_total": result.right_total,
        "precision": result.precision,
        "recall": result.recall,
        "f1": result.f1,
        "mapping": [list(item) for item in result.mapping.items()],
    }


def _scores_json(scores) -> dict:
    return {key: _result_json(result) for key, result in scores.items()}


def _write_fixture() -> None:
    cases = []
    for left, right, restarts, seed in (
        *_fixture_pairs(), *_draw_order_pairs(), *_document_pairs()
    ):
        cases.append({
            "left": _graph_json(left),
            "right": _graph_json(right),
            "restarts": restarts,
            "seed": seed,
            "fine_grained": _scores_json(
                fine_grained(left, right, restarts=restarts, seed=seed)
            ),
        })
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")


@functools.cache
def _golden_cases():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize(
    "index", range(PAIRS + len(DRAW_ORDER_PAIRS) + len(DOCUMENT_PAIRS))
)
def test_seeded_results_match_golden_fixture(index):
    case = _golden_cases()[index]
    left, right = _graph_from_json(case["left"]), _graph_from_json(case["right"])
    restarts, seed = case["restarts"], case["seed"]
    scores = fine_grained(left, right, restarts=restarts, seed=seed)
    assert _scores_json(scores) == case["fine_grained"]
    base = smatch(left, right, restarts=restarts, seed=seed)
    assert _result_json(base) == case["fine_grained"]["smatch"]


def _counted(monkeypatch, name: str) -> list[int]:
    """Count the calls of a ``_search`` function, as ``calls[0]``."""
    calls, inner = [0], getattr(amrforge._search, name)

    def spy(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(amrforge._search, name, spy)
    return calls


def test_ceiling_bounds_every_mapping(monkeypatch):
    # the oracle's count is the best over all injective mappings, so the
    # ceiling must bound it, and a search that stops early must equal it
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    climbs = _counted(monkeypatch, "_climb_once")

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 12),
        st.sampled_from((1, 2, 4, 6)),
    )
    def check(seed, small, large, restarts):
        rng = random.Random(seed)
        left, right = (
            synth.random_graph(
                rng, 1, size, max_reentrancies=3, attribute_prob=0.3,
                concepts=("want-01", "boy", "girl"), relations=RELATIONS[:3],
            )
            for size in rng.sample((small, large), 2)
        )
        exact = smatch_oracle(left, right)
        assert exact.matched <= _MatchContext(to_triples(left), to_triples(right)).ceiling
        climbs[0] = 0
        found = smatch(left, right, restarts=restarts, seed=seed)
        if climbs[0] < max(restarts, 2):
            assert found.matched == exact.matched

    check()


def test_milp_equals_the_exhaustive_oracle():
    # two exact references that share only the weight tables: the MILP
    # must find every injective mapping's best, no more and no less
    pytest.importorskip("scipy")
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(hypothesis.strategies.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        left, right = (
            synth.random_graph(
                rng, 2, 6, max_reentrancies=2, attribute_prob=0.3,
                concepts=("want-01", "boy", "girl"), relations=RELATIONS[:3],
            )
            for _ in range(2)
        )
        for variant in (lambda t: t, _unlabeled):
            a, b = variant(to_triples(left)), variant(to_triples(right))
            assert milp_optimum(a, b) == oracle_optimum(a, b).matched

    check()


def _searched_variants(a: TripleSet, b: TripleSet):
    """Each ``fine_grained`` key a mapping search scores, with the triple
    sets it searches over: the base, then each of ``SEARCHED_VARIANTS``."""
    yield "smatch", a, b
    for key, variant, _ in SEARCHED_VARIANTS:
        yield key, variant(a), variant(b)


@pytest.mark.parametrize("index", range(PAIRS))
def test_search_never_exceeds_the_milp_optimum(index):
    # a climb that miscounts a gain can report more triples than any
    # mapping matches; the golden fixture alone would not say which side
    # is wrong, the optimum does
    pytest.importorskip("scipy")
    case = _golden_cases()[index]
    left, right = _graph_from_json(case["left"]), _graph_from_json(case["right"])
    scores = fine_grained(left, right, restarts=case["restarts"], seed=case["seed"])
    for key, a, b in _searched_variants(to_triples(left), to_triples(right)):
        if scores[key] is not None:
            assert scores[key].matched <= milp_optimum(a, b), key


def _eval_small_pairs(count: int = 40, seed: int = 5150):
    """Gold graphs of 5-30 nodes and predictions with 40% of the concepts
    masked, passed through ``repair``, as the eval-small benchmark has."""
    rng = random.Random(seed)
    noise = CorruptionConfig(node_rate=0.4, edge_rate=0.0, subgraph_rate=0.0)
    for index in range(count):
        size = 5 + index * 25 // (count - 1)
        gold = synth.random_graph(
            rng, size, size, max_reentrancies=size // 6, attribute_prob=0.1,
            relations=synth.RELATIONS + (":name",),
        )
        noisy, _ = corrupt_graph(gold, noise, derive_rng(seed, index))
        yield delinearize(repair(noisy)), gold, index


def _reference_climb(context, images):
    """A climb with no ceiling stop: it builds a position for every start
    and takes sideways steps until its budget runs out, whatever its
    score.  Up to the ceiling its path is the stopped climb's, so it
    returns its end score with the mapping the search reports: the first
    one on its path that scores the ceiling, or where it ended."""
    position = amrforge._search._Position(context, list(images))
    score = context.count(images)
    reported = list(images)
    sideways = _SIDEWAYS_BUDGET
    visited = {tuple(images)}
    while True:
        gain, changes = position.best_move()
        if changes is None and sideways > 0:
            changes = position.sideways(visited)
            if changes is not None:
                sideways -= 1
        if changes is None:
            return score, reported
        position.apply(changes)
        visited.add(tuple(position.images))
        score += gain
        if score < context.ceiling or gain:
            reported = list(position.images)


def _reference_best_mapping(context, restarts: int, rng, extra_seeds=()):
    """The full search: it draws the random starts as ``best_mapping``
    does, climbs every start that ``_search._starts`` yields with
    :func:`_reference_climb`, and keeps the first of the best."""
    search = amrforge._search
    drawn = [search._random_seed(context, rng) for _ in range(restarts - len(extra_seeds) - 2)]
    best_score = -1
    for images in search._starts(context, extra_seeds, drawn):
        score, images = _reference_climb(context, images)
        if score > best_score:
            best_score, best_images = score, images
    return best_score, context.mapping(best_images)


def _searched_runs():
    """``(left, right, restarts, seed)`` of the golden cases, then of the
    eval-small pairs at 1, 2, 4 and 5 restarts."""
    for case in _golden_cases():
        left, right = _graph_from_json(case["left"]), _graph_from_json(case["right"])
        yield left, right, case["restarts"], case["seed"]
    for left, right, index in _eval_small_pairs():
        for restarts in (1, 2, 4, 5):
            yield left, right, restarts, index


def _reference_runs():
    """``_searched_runs()``, then document pairs of 25 and 60 nodes at
    seeds 0 and 1 and 4 restarts, where fewer climbs reach the ceiling."""
    yield from _searched_runs()
    for size in (25, 60):
        for seed in range(2):
            yield *synth.document_pair(random.Random(seed), size, size), 4, seed


@functools.cache
def _recorded_searches():
    """``fine_grained`` over ``_reference_runs()``, first as it is and
    then with :func:`_reference_best_mapping` patched in at the one search
    every ``fine_grained`` search calls.  Returns, per run, its results
    each way, the number of reference calls, and a record of each search
    run as it is: ``(restarts, len(extra_seeds), events)``, the events in
    order.  An event names a start built (with its kind), drawn or
    climbed (with whether the climb reached the ceiling), or a position
    built or a sideways step looked for (with whether its mapping scored
    the ceiling).  Every start is kept alive in the events, so a start is
    named by its identity."""
    search, metrics = amrforge._search, amrforge.metrics
    searches: list[tuple[int, int, list]] = []

    def log(*event):
        searches[-1][2].append(event)

    def best_mapping(context, restarts, rng, extra_seeds=()):
        searches.append((restarts, len(extra_seeds), []))
        return search.best_mapping(context, restarts, rng, extra_seeds)

    def built(kind, inner):
        def spy(*args):
            start = inner(*args)
            log("built", kind, start)
            return start
        return spy

    def random_seed(context, rng, inner=search._random_seed):
        log("drawn")
        return inner(context, rng)

    def climb_once(context, images, inner=search._climb_once):
        score, end = inner(context, images)
        log("climbed", images, score == context.ceiling)
        return score, end

    class Position(search._Position):
        def __init__(self, context, images):
            log("position", context.count(images) == context.ceiling)
            super().__init__(context, images)

        def sideways(self, visited):
            log("sideways", self.context.count(self.images) == self.context.ceiling)
            return super().sideways(visited)

    runs = list(_reference_runs())
    real = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "best_mapping", best_mapping)
        patch.setattr(search._MatchContext, "images", built("seed", search._MatchContext.images))
        patch.setattr(search, "_name_seed", built("name", search._name_seed))
        patch.setattr(search, "_greedy_seed", built("greedy", search._greedy_seed))
        patch.setattr(search, "_random_seed", random_seed)
        patch.setattr(search, "_climb_once", climb_once)
        patch.setattr(search, "_Position", Position)
        for left, right, restarts, seed in runs:
            first = len(searches)
            scores = fine_grained(left, right, restarts=restarts, seed=seed)
            real.append((scores, searches[first:]))

    calls = [0]

    def reference(*args):
        calls[0] += 1
        return _reference_best_mapping(*args)

    recorded = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "best_mapping", reference)
        for (left, right, restarts, seed), (scores, records) in zip(runs, real):
            calls[0] = 0
            reference_scores = fine_grained(left, right, restarts=restarts, seed=seed)
            recorded.append((scores, reference_scores, calls[0], records))
    return recorded


def _searches():
    """The record of every search ``_recorded_searches`` ran as it is."""
    return [search for *_, records in _recorded_searches() for search in records]


def test_every_result_equals_the_full_search():
    # a climb that stops at the ceiling, and the starts skipped after it,
    # change no count; the mapping reported is the first that scores the
    # ceiling, or the first climb's of the best score below it
    for scores, reference, calls, records in _recorded_searches():
        assert scores == reference
        searched = 1 + sum(scores[key] is not None for key, *_ in SEARCHED_VARIANTS)
        assert calls == len(records) == searched


def test_the_random_starts_are_all_drawn_before_the_first_climb():
    # so fine_grained's shared generator moves the same however many of
    # its starts a search climbs
    drawn = 0
    for restarts, seeds, events in _searches():
        kinds = [event[0] for event in events]
        assert kinds.count("drawn") == max(0, restarts - seeds - 2)
        if "drawn" in kinds:
            last_draw = max(i for i, kind in enumerate(kinds) if kind == "drawn")
            assert last_draw < kinds.index("climbed")
        drawn += kinds.count("drawn")
    assert drawn > 0


def test_the_search_stops_after_the_first_climb_that_reaches_the_ceiling():
    # and climbs every start when none does
    stopped = 0
    for restarts, seeds, events in _searches():
        reached = [event[2] for event in events if event[0] == "climbed"]
        if True in reached:
            assert len(reached) == reached.index(True) + 1
            stopped += len(reached) < max(restarts, seeds + 2)
        else:
            assert len(reached) == max(restarts, seeds + 2)
    assert stopped > 0


def test_no_climb_works_at_the_ceiling():
    # a start that scores the ceiling builds no position, and no climb
    # looks for a sideways step once it scores the ceiling
    events = [event for *_, events in _searches() for event in events]
    assert ("position", True) not in events and ("sideways", True) not in events
    assert ("position", False) in events and ("sideways", False) in events


def test_a_seeded_start_is_built_only_when_it_is_climbed():
    # in the order the caller's seeds, the greedy start, the name start,
    # so a re-run climbs the base mapping first and a search climbs the
    # concept-matched start before the name-matched one
    skipped = 0
    for _, seeds, events in _searches():
        built = [(event[1], event[2]) for event in events if event[0] == "built"]
        climbed = [event[1] for event in events if event[0] == "climbed"]
        assert [kind for kind, _ in built] == (["seed"] * seeds + ["greedy", "name"])[:len(built)]
        assert [id(start) for _, start in built] == [id(start) for start in climbed[:len(built)]]
        skipped += seeds + 2 - len(built)
    assert skipped > 0


def _name_start_first(context, extra_seeds, drawn):
    """``_search._starts`` with the name start before the greedy one."""
    yield from map(context.images, extra_seeds)
    yield _name_seed(context)
    yield _greedy_seed(context)
    yield from drawn


def test_the_start_order_changes_no_count():
    # the draws come first and a climb that reaches the ceiling ends the
    # search in either order, so only ties between mappings can differ
    runs = list(_reference_runs())
    counts = [smatch(left, right, restarts, seed).matched
              for left, right, restarts, seed in runs]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(amrforge._search, "_starts", _name_start_first)
        assert [smatch(left, right, restarts, seed).matched
                for left, right, restarts, seed in runs] == counts


def test_a_renamed_copy_is_certified_at_its_first_start(monkeypatch):
    # the names are disjoint, so the name start matches nothing, while the
    # greedy start of a copy in node order is the identity: the ceiling
    graph = synth.random_graph(random.Random(100), 100, 100, max_reentrancies=10,
                               attribute_prob=0.2)
    renamed = rename_nodes(graph, {n: f"r{k}" for k, n in enumerate(graph.nodes)})
    climbs = _counted(monkeypatch, "_climb_once")

    def no_position(*args):
        raise AssertionError("a position was built")

    monkeypatch.setattr(amrforge._search, "_Position", no_position)
    assert smatch(graph, renamed).f1 == 1.0
    assert climbs[0] == 1


def test_each_reported_mapping_matches_its_count():
    # the mapping is what a re-run reports beside its count; a search that
    # kept another of the mappings it visited would still pass every count
    for left, right, restarts, seed in _searched_runs():
        scores = fine_grained(left, right, restarts=restarts, seed=seed)
        for key, a, b in _searched_variants(to_triples(left), to_triples(right)):
            result = scores[key]
            if result is not None:
                assert _reference_count(a, b, result.mapping) == result.matched, key


def _per_pair_links(left: TripleSet, right: TripleSet, unary):
    """``links`` and ``ceiling`` as the search built them before pairs with
    the same labels shared their tables: a fresh table for each left
    variable pair, filled label by label from ``Counter``s of the relation
    labels.  ``unary`` is the context's, which adds its part of the
    ceiling."""

    def pairs(triples: TripleSet) -> dict[tuple[int, int], Counter]:
        index = {v: i for i, (v, _, _) in enumerate(triples.instances)}
        found: dict[tuple[int, int], Counter] = {}
        for first, rel, third in triples.relations:
            if first != third:
                found.setdefault((index[first], index[third]), Counter())[rel] += 1
        return found

    carriers: dict[str, list] = {}
    for (j, k), labels in pairs(right).items():
        for label, count in labels.items():
            carriers.setdefault(label, []).append((j, k, count))
    links: list[dict] = [{} for _ in left.instances]
    for (v, w), labels in pairs(left).items():
        forward = links[v].setdefault(w, {})
        backward = links[w].setdefault(v, {})
        for label, count in labels.items():
            for j, k, other in carriers.get(label, ()):
                weight = min(count, other)
                row = forward.setdefault(k, {})
                row[j] = row.get(j, 0) + weight
                row = backward.setdefault(j, {})
                row[k] = row.get(k, 0) + weight
    ceiling = sum(max(weights.values(), default=0) for weights in unary)
    ceiling += sum(  # a label with no carriers leaves a table empty
        max((max(row.values()) for row in table.values()), default=0)
        for v, tables in enumerate(links) for w, table in tables.items() if v < w
    )
    return links, ceiling


def _check_shared_links(left: TripleSet, right: TripleSet) -> bool:
    """Check the context's tables against the per-pair ones; returns whether
    two pairs share a table."""
    context = _MatchContext(left, right)
    links, ceiling = _per_pair_links(left, right, context.unary)
    assert context.links == links
    assert [list(tables) for tables in context.links] == [list(tables) for tables in links]
    assert context.ceiling == ceiling
    tables = [table for tables in context.links for table in tables.values()]
    return len({id(table) for table in tables}) < len(tables)


def test_shared_links_equal_the_per_pair_tables_on_the_golden_cases():
    for case in _golden_cases():
        left, right = _graph_from_json(case["left"]), _graph_from_json(case["right"])
        for _, a, b in _searched_variants(to_triples(left), to_triples(right)):
            _check_shared_links(a, b)


def _tangled_triples(rng) -> TripleSet:
    """Up to six variables and relations drawn with replacement over three
    labels, so parallel edges, repeated triples, edges both ways between
    two variables and self-loops are all common."""
    variables = [f"v{i}" for i in range(rng.randint(1, 6))]
    concepts = ("want-01", "want-02", "boy")
    return TripleSet(
        instances=tuple((v, "instance", rng.choice(concepts)) for v in variables),
        attributes=((variables[0], "TOP", "want-01"),),
        relations=tuple(
            (rng.choice(variables), rng.choice(RELATIONS[:3]), rng.choice(variables))
            for _ in range(rng.randint(0, 12))
        ),
    )


def test_shared_links_with_parallel_edges_duplicate_labels_and_self_loops():
    rng = random.Random(2718)
    shared = both_ways = 0
    for _ in range(300):
        left, right = _tangled_triples(rng), _tangled_triples(rng)
        for _, a, b in _searched_variants(left, right):
            shared += _check_shared_links(a, b)
        edges = {(s, t) for s, _, t in left.relations if s != t}
        both_ways += any((t, s) in edges for s, t in edges)
    assert shared > 0 and both_ways > 0


def _contexts(left: TripleSet, right: TripleSet):
    """The base context of two triple sets, then each of
    ``SEARCHED_VARIANTS``' contexts built from it as ``fine_grained``
    builds them, with the variant triple sets."""
    base = _MatchContext(left, right)
    yield "smatch", base, left, right
    for key, variant, kept in SEARCHED_VARIANTS:
        a, b = variant(left), variant(right)
        yield key, _MatchContext(a, b, base, kept), a, b


_SEARCHED_KEYS = ("smatch", *(key for key, *_ in SEARCHED_VARIANTS))


def _fine_grained_contexts(left: AmrGraph, right: AmrGraph):
    """Each key ``fine_grained`` searches, with the context it searched."""
    searched, inner = [], amrforge.metrics.best_mapping

    def spy(context, *args):
        searched.append(context)
        return inner(context, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(amrforge.metrics, "best_mapping", spy)
        scores = fine_grained(left, right)
    keys = [key for key in _SEARCHED_KEYS if scores[key] is not None]
    assert len(keys) == len(searched)
    return zip(keys, searched)


def test_search_never_writes_the_shared_tables(monkeypatch):
    contexts = []

    class Recorded(_MatchContext):
        def __init__(self, left, right, base=None, kept=None):
            super().__init__(left, right, base, kept)
            contexts.append((self, copy.deepcopy((self.unary, self.links, self.ceiling))))

    monkeypatch.setattr(amrforge.metrics, "_MatchContext", Recorded)
    for case in _golden_cases():
        left, right = _graph_from_json(case["left"]), _graph_from_json(case["right"])
        fine_grained(left, right, restarts=case["restarts"], seed=case["seed"])
    assert len(contexts) > 150
    rng = random.Random(3141)
    for _ in range(100):
        left, right = _tangled_triples(rng), _tangled_triples(rng)
        for _, context, _, _ in _contexts(left, right):
            contexts.append((context, copy.deepcopy((context.unary, context.links, context.ceiling))))
            amrforge._search.best_mapping(context, 4, rng)
    prediction, gold = document_pair(100)
    unlabeled = Recorded(_unlabeled(to_triples(prediction)), _unlabeled(to_triples(gold)))
    amrforge._search.best_mapping(unlabeled, 4, rng)
    assert len(contexts) > 650
    for context, before in contexts:
        assert (context.unary, context.links, context.ceiling) == before


def _check_kept_parts(key: str, context, base, left: TripleSet, right: TripleSet):
    """A re-run's context against one built from scratch, and its kept
    part and variable numbering against the base context's own."""
    scratch = _MatchContext(left, right)
    assert context.unary == scratch.unary, key
    assert context.links == scratch.links, key
    assert context.ceiling == scratch.ceiling, key
    assert (context.vars1, context.vars2, context.index2) == (
        scratch.vars1, scratch.vars2, scratch.index2), key
    for name in ("vars1", "vars2", "index1", "index2"):
        assert getattr(context, name) is getattr(base, name), (key, name)
    if key == "no_wsd":
        assert context.links is base.links
    else:
        assert context.instances is base.instances, key


def test_kept_parts_equal_tables_built_from_scratch():
    # the re-runs take the variable numbering, and the instance weights (all
    # but no_wsd) or the links (no_wsd), from the base context; everything
    # else they build
    pairs = [
        (_graph_from_json(case["left"]), _graph_from_json(case["right"]))
        for case in _golden_cases()
    ]
    pairs += [synth.document_pair(random.Random(0), size, size) for size in (25, 60)]
    checked = Counter()
    for prediction, gold in pairs:
        contexts = dict(_fine_grained_contexts(prediction, gold))
        left, right = to_triples(prediction), to_triples(gold)
        for key, variant, _ in SEARCHED_VARIANTS:
            if key in contexts:
                _check_kept_parts(key, contexts[key], contexts["smatch"],
                                  variant(left), variant(right))
                checked[key] += 1
    rng = random.Random(1618)
    for _ in range(300):
        contexts = list(_contexts(_tangled_triples(rng), _tangled_triples(rng)))
        for key, context, a, b in contexts[1:]:
            _check_kept_parts(key, context, contexts[0][1], a, b)
            checked[key] += 1
    assert min(checked.values()) > 300 and len(checked) == len(SEARCHED_VARIANTS)


def test_unlabeled_pairs_share_a_few_tables():
    # every relation reads :label, so a pair's table depends only on how
    # many edges join it each way: 216 entries, 4 distinct tables
    prediction, gold = document_pair(100)
    context = _MatchContext(_unlabeled(to_triples(prediction)), _unlabeled(to_triples(gold)))
    tables = [table for links in context.links for table in links.values()]
    assert len(tables) == 216
    assert len({id(table) for table in tables}) <= 4


def test_document_pairs_match_the_recorded_counts():
    # recorded with the per-pair tables; the climb is not symmetric, so the
    # other scoring order matches one more triple at 100 nodes
    assert smatch(*document_pair(25)).matched == 51
    prediction, gold = document_pair(100)
    assert smatch(prediction, gold).matched == 182
    assert smatch(gold, prediction).matched == 183


def _reference_count(left: TripleSet, right: TripleSet, mapping) -> int:
    """Matched triples under ``mapping`` by plain multiset overlap."""

    def forms(triples: TripleSet, lookup) -> Counter:
        found = Counter()
        for kind, group in (("i", triples.instances), ("a", triples.attributes),
                            ("r", triples.relations)):
            for first, rel, third in group:
                found[kind, lookup(first), rel,
                      lookup(third) if kind == "r" else third] += 1
        return found

    target = forms(right, lambda v: v)
    return sum(
        min(count, target[form]) for form, count in forms(left, mapping.get).items()
    )


def _link(position: _Position, v: int, w: int, at_v, at_w) -> int:
    table = position.context.links[v].get(w)
    if table is None:
        return 0
    return table.get(at_w, {}).get(at_v, 0)


def _reassign(position: _Position, v: int, j: int | None):
    """Gain and changes of moving ``v`` to ``j``, evicting ``j``'s holder."""
    gain = position.reach[v].get(j, 0) - position.current[v]
    owner = position.holder.get(j)
    if owner is None:
        return gain, ((v, j),)
    gain -= position.current[owner] - _link(position, v, owner, position.images[v], j)
    return gain, ((v, j), (owner, None))


def _swap(position: _Position, v: int, w: int):
    """Gain and changes of exchanging the images of ``v`` and ``w``."""
    at_v, at_w = position.images[v], position.images[w]
    gain = (
        position.reach[v].get(at_w, 0)
        + position.reach[w].get(at_v, 0)
        + _link(position, v, w, at_w, at_v)
        + _link(position, v, w, at_v, at_w)
        - position.current[v]
        - position.current[w]
    )
    return gain, ((v, at_w), (w, at_v))


def _moves(position: _Position):
    """Every reassignment, then every swap, with its gain, in search order:
    the reference enumeration the kept tables are checked against."""
    images = position.images
    targets = [*range(len(position.context.vars2)), None]
    for v, at in enumerate(images):
        for j in targets:
            if j != at:
                yield _reassign(position, v, j)
    for v, w in itertools.combinations(range(len(images)), 2):
        if images[v] != images[w]:
            yield _swap(position, v, w)


def _first_best(moves):
    best_gain, best = 0, None
    for gain, changes in moves:
        if gain > best_gain:
            best_gain, best = gain, changes
    return best_gain, best


def _random_images(context: _MatchContext, rng) -> list[int | None]:
    """An injective mapping, with a few unmapped variables."""
    targets = list(range(len(context.vars2)))
    targets += [None] * (max(len(context.vars1) - len(targets), 0) + rng.randint(0, 2))
    rng.shuffle(targets)
    return targets[: len(context.vars1)]


def _check_move_gains(left: TripleSet, right: TripleSet, rng, mappings: int = 3):
    context = _MatchContext(left, right)
    vars1, vars2 = context.vars1, context.vars2
    for _ in range(mappings):
        targets = list(vars2)
        targets += [None] * (max(len(vars1) - len(vars2), 0) + rng.randint(0, 2))
        rng.shuffle(targets)
        mapping = dict(zip(vars1, targets))
        before = _reference_count(left, right, mapping)
        images = context.images(mapping)
        assert context.count(images) == before
        position = _Position(context, images)
        best_gain, best = 0, None
        for gain, changes in _moves(position):
            after = dict(mapping)
            for v, j in changes:
                after[vars1[v]] = None if j is None else vars2[j]
            mapped = [image for image in after.values() if image is not None]
            assert len(mapped) == len(set(mapped)), "move broke injectivity"
            assert gain == _reference_count(left, right, after) - before, changes
            if gain > best_gain:
                best_gain, best = gain, changes
        # the pooled search picks the first-best move of the full order
        assert position.best_move() == (best_gain, best)


@pytest.mark.parametrize("seed", range(40))
def test_move_gains_equal_reference_count_difference(seed):
    rng = random.Random(seed)
    concepts = ("want-01", "want-02", "boy", "girl", "name", "and")

    def graph():
        return to_triples(synth.random_graph(
            rng, 1, 9, max_reentrancies=3, attribute_prob=0.4,
            concepts=concepts, relations=RELATIONS,
        ))

    left, right = graph(), graph()
    for variant in (lambda t: t, _unlabeled, _no_wsd):
        _check_move_gains(variant(left), variant(right), rng)


def test_move_gains_with_duplicate_labels_and_self_loops():
    # a :ARG0 b and a :ARG1 b become two copies of (a, :label, b) when
    # unlabeled, competing for one right copy; self-loops are unary
    left = TripleSet(
        instances=(("a", "instance", "want-01"), ("b", "instance", "boy"),
                   ("c", "instance", "boy")),
        attributes=(("a", "TOP", "want-01"), ("b", ":polarity", "-")),
        relations=(("a", ":ARG0", "b"), ("a", ":ARG1", "b"), ("b", ":ARG0", "a"),
                   ("c", ":mod", "c"), ("a", ":ARG1", "c")),
    )
    right = TripleSet(
        instances=(("x", "instance", "want-01"), ("y", "instance", "boy"),
                   ("z", "instance", "girl")),
        attributes=(("x", "TOP", "want-01"), ("y", ":quant", "-")),
        relations=(("x", ":ARG0", "y"), ("y", ":mod", "y"), ("x", ":ARG1", "z"),
                   ("z", ":ARG0", "x")),
    )
    rng = random.Random(0)
    for variant in (lambda t: t, _unlabeled):
        _check_move_gains(variant(left), variant(right), rng, mappings=6)


def test_best_move_includes_swaps_that_only_reverse_an_edge():
    # neither variable can match anything alone, only the swapped pair can
    left = TripleSet(instances=(("a", "instance", "p"), ("b", "instance", "q")),
                     attributes=(), relations=(("a", ":ARG0", "b"),))
    right = TripleSet(instances=(("y", "instance", "r"), ("x", "instance", "s")),
                      attributes=(), relations=(("y", ":ARG0", "x"),))
    context = _MatchContext(left, right)
    position = _Position(context, context.images({"a": "x", "b": "y"}))
    assert position.best_move() == (1, ((0, 0), (1, 1)))
    _check_move_gains(left, right, random.Random(1))


def _tables(position: _Position):
    return (
        position.images, position.holder, position.reach, position.current,
        position.watchers, position.gains, position.targets, position.swaps,
        position.partners,
    )


def _check_climbs(left: TripleSet, right: TripleSet, rng, climbs: int = 2) -> int:
    """Drive climbs from the seeded and some random mappings by hand.
    After every step, improving or sideways, the kept tables must equal a
    fresh position's, and the chosen move the reference enumeration's.
    A climb stops once it scores the ceiling, as ``_climb_once`` does.
    Returns the number of sideways steps taken."""
    context = _MatchContext(left, right)
    starts = [_name_seed(context), _greedy_seed(context)]
    starts += [_random_images(context, rng) for _ in range(climbs)]
    taken = 0
    for start in starts:
        position = _Position(context, list(start))
        score, visited = context.count(start), {tuple(start)}
        sideways = _SIDEWAYS_BUDGET
        while score < context.ceiling:
            assert _tables(position) == _tables(_Position(context, list(position.images)))
            gain, changes = position.best_move()
            assert (gain, changes) == _first_best(_moves(position))
            if changes is None and sideways > 0:
                changes = next((
                    candidate for step, candidate in _moves(position)
                    if step == 0
                    and tuple(_applied(position.images, candidate)) not in visited
                ), None)
                assert position.sideways(visited) == changes
                if changes is not None:
                    sideways -= 1
                    taken += 1
            if changes is None:
                break
            position.apply(changes)
            visited.add(tuple(position.images))
            score += gain
        assert _tables(position) == _tables(_Position(context, list(position.images)))
        assert score == context.count(position.images)
        assert _climb_once(context, start) == (score, position.images)
    return taken


def _small_triples(rng) -> TripleSet:
    concepts = ("want-01", "want-02", "boy", "girl", "name", "and")
    return to_triples(synth.random_graph(
        rng, 1, 9, max_reentrancies=3, attribute_prob=0.4,
        concepts=concepts, relations=RELATIONS,
    ))


@pytest.mark.parametrize("seed", range(40))
def test_kept_tables_equal_a_fresh_position_after_every_step(seed):
    rng = random.Random(seed)
    left, right = _small_triples(rng), _small_triples(rng)
    for variant in (lambda t: t, _unlabeled, _no_wsd):
        _check_climbs(variant(left), variant(right), rng)


def test_kept_tables_with_duplicate_labels_and_self_loops():
    left = TripleSet(
        instances=(("a", "instance", "want-01"), ("b", "instance", "boy"),
                   ("c", "instance", "boy")),
        attributes=(("a", "TOP", "want-01"), ("b", ":polarity", "-")),
        relations=(("a", ":ARG0", "b"), ("a", ":ARG1", "b"), ("b", ":ARG0", "a"),
                   ("c", ":mod", "c"), ("a", ":ARG1", "c")),
    )
    right = TripleSet(
        instances=(("x", "instance", "want-01"), ("y", "instance", "boy"),
                   ("z", "instance", "girl")),
        attributes=(("x", "TOP", "want-01"), ("y", ":quant", "-")),
        relations=(("x", ":ARG0", "y"), ("y", ":mod", "y"), ("x", ":ARG1", "z"),
                   ("z", ":ARG0", "x")),
    )
    rng = random.Random(0)
    for variant in (lambda t: t, _unlabeled):
        _check_climbs(variant(left), variant(right), rng, climbs=6)


def test_kept_tables_along_the_golden_climbs():
    # 5-30-node pairs climb longer than the small seeded ones, and many of
    # their climbs end on plateaus, so sideways steps are checked too
    taken = 0
    for index, case in enumerate(_golden_cases()[: PAIRS + len(DRAW_ORDER_PAIRS)]):
        left = to_triples(_graph_from_json(case["left"]))
        right = to_triples(_graph_from_json(case["right"]))
        rng = random.Random(index)
        for variant in (lambda t: t, _unlabeled, _no_wsd):
            taken += _check_climbs(variant(left), variant(right), rng, climbs=1)
    assert taken > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_smatch_equivalence.py --write")
    _write_fixture()
