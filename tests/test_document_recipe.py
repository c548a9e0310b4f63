"""conftest's ``document_from_sentences``: documents joined from sentence
pairs under one root, with coreference merges across sentences, the
document-size data on which the Smatch search falls short of the optimum.

The pinned count records the search at 20 sentences; the MILP optimum of
the same pair is recorded beside it.  Both are pins, not gates: a change
that finds more triples updates the count, and the gap between the two is
what a better search would close.
"""

import functools
import random
import re

import pytest

from amrforge import graph_to_penman, is_isomorphic, parse_penman, smatch, validate
from amrforge.metrics import to_triples

from conftest import QUOTED_NAMES, document_from_sentences, milp_optimum

# smatch(prediction, gold) at seed 0 and 20 sentences (206 / 189 nodes),
# with the default restarts, and the most triples any mapping matches
PINNED_MATCHED, PINNED_OPTIMUM = 389, 394


def _sentence(node: str) -> str:
    return re.match(r"s\d+", node)[0]  # gold's nodes are named s{k}...


@functools.cache
def _twenty_sentences():
    return document_from_sentences(random.Random(0), 20)


def test_every_generated_pair_validates():
    merged = named = 0
    for seed in range(20):
        prediction, gold = document_from_sentences(random.Random(seed), 1 + seed)
        for graph in (prediction, gold):
            assert validate(graph) == []
            assert is_isomorphic(parse_penman(graph_to_penman(graph)).graph, graph)
        # before the merges every edge but the root's stays in its sentence
        merged += sum(_sentence(s) != _sentence(t) for s, _, t in gold.edges if s != "m")
        named += sum(value in QUOTED_NAMES for _, _, value in gold.attributes)
    assert merged and named


def test_the_twenty_sentence_document_keeps_its_pinned_count():
    prediction, gold = _twenty_sentences()
    assert (len(prediction.nodes), len(gold.nodes)) == (206, 189)
    assert smatch(prediction, gold).matched == PINNED_MATCHED


def test_the_twenty_sentence_document_has_its_recorded_optimum():
    pytest.importorskip("scipy")
    prediction, gold = _twenty_sentences()
    assert milp_optimum(to_triples(prediction), to_triples(gold)) == PINNED_OPTIMUM
