"""delinearize, repair and synth.random_graph pinned to a golden fixture.

``data/walker_golden.json`` holds 600 seeded token sequences: linearized
or ``corrupt_graph``-masked ``synth`` graphs of 1-25 nodes, mutated by
token deletion, truncation, insertion (stray ``(``, ``)``, pointers,
relations, ``[mask]``, relation-pointer pairs) and duplication of short
stretches.  For each sequence it stores the strict result (the PENMAN of
``delinearize``, or the ``StructureError`` message and position) and the
``repair`` output (``null`` for ``RepairError``).  It also stores the
PENMAN of ``synth.random_graph`` for 50 seeds with reentrancies.  The
results were recorded with the earlier code, which had separate strict
and salvage walkers and kept a per-node ancestor set, so the single walker
with on-demand cycle checks must reproduce them exactly.  Regenerate the
fixture only when a change of results is intended:

    PYTHONPATH=src python tests/test_walker_equivalence.py --write
"""

from __future__ import annotations

import functools
import json
import random
import re
import sys
from pathlib import Path

from amrforge import graph_to_penman, synth
from amrforge import tokens as tk
from amrforge.corrupt import CorruptionConfig, corrupt_graph, derive_rng
from amrforge.linearize import (
    RepairError, StructureError, delinearize, linearize, repair,
)

FIXTURE = Path(__file__).parent / "data" / "walker_golden.json"
FIXTURE_SEED = 3307
SEQUENCES = 600
GRAPHS = 50
# few labels, so duplicate edges and reentrancies are common
RELATIONS = (":ARG0", ":ARG1", ":mod", ":op1")
NOISE = CorruptionConfig(node_rate=0.3, edge_rate=0.1, subgraph_rate=0.5)

# Every message delinearize raises for a non-empty sequence, plus the
# empty one; a sequence that defines no node always faults earlier, so
# "sequence contains no node" cannot occur.
STRUCTURE_ERRORS = (
    r"empty sequence",
    r"unexpected content after the graph",
    r"node without an introducing relation",
    r"expected a pointer after '\('",
    r"missing concept after pointer",
    r"pointer <Z\d+> defined more than once",
    r"duplicate edge \(",
    r"edge \(.*\) would close a cycle",
    r"relation '.*' has no target",
    r"unbalanced '\)'",
    r"relation outside of a node",
    r"pointer <Z\d+> used before definition",
    r"unexpected pointer <Z\d+>",
    r"unexpected token ",
    r"duplicate attribute ",
    r"missing close-paren",
)


def _stray(rng: random.Random, nodes: int) -> list[str]:
    choice = rng.randrange(6)
    if choice == 0:
        return [tk.OPEN]
    if choice == 1:
        return [tk.CLOSE]
    if choice == 2:
        return [tk.pointer(rng.randrange(nodes + 2))]
    if choice == 3:
        return [rng.choice(RELATIONS)]
    if choice == 4:
        return [tk.MASK]
    return [rng.choice(RELATIONS), tk.pointer(rng.randrange(nodes + 1))]


def _mutate(toks: list[str], rng: random.Random, nodes: int) -> list[str]:
    toks = list(toks)
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(4)
        if kind == 0 and toks:
            start = rng.randrange(len(toks))
            del toks[start : start + rng.randint(1, 3)]
        elif kind == 1:
            at = rng.choice((rng.randint(0, len(toks)), len(toks)))
            toks[at:at] = _stray(rng, nodes)
        elif kind == 2 and toks:
            start = rng.randrange(len(toks))
            stretch = toks[start : start + rng.randint(1, 6)]
            at = rng.choice((start + len(stretch), rng.randint(0, len(toks))))
            toks[at:at] = stretch
        elif kind == 3:
            toks = toks[: rng.randint(0, len(toks))]
    return toks


def _sequences(count: int = SEQUENCES):
    rng = random.Random(FIXTURE_SEED)
    for index in range(count):
        graph = synth.random_graph(
            rng, 1, 25, max_reentrancies=rng.randint(0, 4), attribute_prob=0.3,
            relations=RELATIONS,
        )
        if index % 4 == 3:
            toks, _ = corrupt_graph(graph, NOISE, derive_rng(FIXTURE_SEED, index))
        else:
            toks = linearize(graph)
        yield _mutate(toks, rng, len(graph.nodes))


def _random_graphs(count: int = GRAPHS):
    for seed in range(count):
        yield synth.random_graph(
            random.Random(seed), 1, 40, max_reentrancies=1 + seed % 12,
            attribute_prob=0.2, relations=RELATIONS if seed % 2 else synth.RELATIONS,
        )


def _strict(toks: list[str]):
    try:
        return graph_to_penman(delinearize(toks))
    except StructureError as error:
        return [str(error), error.position]


def _repaired(toks: list[str]) -> str | None:
    try:
        return tk.to_text(repair(toks))
    except RepairError:
        return None


def _write_fixture() -> None:
    cases = []
    for toks in _sequences():
        assert all(token and token == token.strip() for token in toks)
        cases.append({
            "tokens": tk.to_text(toks),
            "strict": _strict(toks),
            "repair": _repaired(toks),
        })
    graphs = [graph_to_penman(graph) for graph in _random_graphs()]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({"sequences": cases, "random_graphs": graphs}, indent=0) + "\n",
        encoding="utf-8",
    )


@functools.cache
def _golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_strict_and_repair_results_match_golden_fixture():
    mismatches = []
    for index, case in enumerate(_golden()["sequences"]):
        toks = tk.from_text(case["tokens"])
        got = {"strict": _strict(toks), "repair": _repaired(toks)}
        if got != {"strict": case["strict"], "repair": case["repair"]}:
            mismatches.append((index, case["tokens"], got))
    assert not mismatches, mismatches[:3]


def test_fixture_covers_every_structure_error():
    messages = [case["strict"][0] for case in _golden()["sequences"]
                if isinstance(case["strict"], list)]
    missing = [pattern for pattern in STRUCTURE_ERRORS
               if not any(re.match(pattern, message) for message in messages)]
    assert not missing


def test_random_graphs_match_golden_fixture():
    graphs = [graph_to_penman(graph) for graph in _random_graphs()]
    assert graphs == _golden()["random_graphs"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_walker_equivalence.py --write")
    _write_fixture()
