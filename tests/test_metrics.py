import inspect
import math
import random

import pytest

import amrforge.metrics
from amrforge import (
    AmrGraph,
    InvalidGraphError,
    corpus_bleu_details,
    fine_grained,
    parse_penman,
    smatch,
    to_triples,
)
from amrforge.metrics import SmatchResult, aggregate
from amrforge.synth import random_graph

from conftest import modal_graph, smatch_oracle
from test_smatch_equivalence import _searched_runs

WANT_BOY = "(w / want-01 :ARG0 (b / boy))"
WANT_GIRL = "(w / want-01 :ARG0 (g / girl))"


def _graph(text):
    return parse_penman(text).graph


def _pair_generator(seed, concepts=("want-01", "go-01", "boy", "girl", "dog", "and")):
    rng = random.Random(seed)
    relations = (":ARG0", ":ARG1", ":mod")
    while True:
        yield (
            random_graph(rng, 2, 6, max_reentrancies=1, concepts=concepts,
                         relations=relations),
            random_graph(rng, 2, 6, max_reentrancies=1, concepts=concepts,
                         relations=relations),
        )


def test_to_triples_counts():
    assert to_triples(_graph("(b / boy)")).total == 2
    assert to_triples(_graph(WANT_BOY)).total == 4
    assert to_triples(modal_graph()).total == 8


def test_to_triples_top_marker():
    triples = to_triples(_graph("(b / boy)"))
    assert ("b", "TOP", "boy") in triples.attributes
    assert ("b", "instance", "boy") in triples.instances


def test_self_score_is_exactly_one():
    rng = random.Random(2)
    for _ in range(30):
        graph = random_graph(rng, 1, 12, max_reentrancies=2, attribute_prob=0.3)
        result = smatch(graph, graph)
        assert result.f1 == 1.0
        assert result.matched == to_triples(graph).total


def test_hand_derived_value():
    result = smatch(_graph(WANT_BOY), _graph(WANT_GIRL))
    assert result.matched == 3
    assert result.precision == 0.75
    assert result.recall == 0.75
    assert result.f1 == 0.75


def test_scores_follow_from_the_counts():
    # precision against the left total, recall against the right
    result = SmatchResult(3, 4, 6)
    assert (result.precision, result.recall, result.f1) == (0.75, 0.5, 0.6)
    assert result.mapping == {}
    empty = SmatchResult(0, 0, 0)
    assert (empty.precision, empty.recall, empty.f1) == (0.0, 0.0, 0.0)


def test_disjoint_concepts_score_zero():
    assert smatch(_graph("(a / cat)"), _graph("(b / dog)")).f1 == 0.0


def test_oracle_matches_on_hand_cases(golden):
    for left, right in [
        (WANT_BOY, WANT_BOY),
        (WANT_BOY, WANT_GIRL),
        ("(a / cat)", "(b / dog)"),
    ]:
        approx = smatch(_graph(left), _graph(right))
        exact = smatch_oracle(_graph(left), _graph(right))
        assert approx.f1 == exact.f1
        assert approx.matched == exact.matched


def test_two_node_graphs_with_disjoint_concepts():
    # only the relation triple can match; TOP and instances cannot
    same_rel = smatch_oracle(
        _graph("(a / x :mod (b / y))"), _graph("(c / p :mod (d / q))")
    )
    assert same_rel.matched == 1
    assert same_rel.f1 == 0.25
    other_rel = smatch_oracle(
        _graph("(a / x :mod (b / y))"), _graph("(c / p :time (d / q))")
    )
    assert other_rel.f1 == 0.0


def test_oracle_never_below_hill_climb():
    pairs = _pair_generator(3)
    for _ in range(100):
        left, right = next(pairs)
        assert smatch_oracle(left, right).matched >= smatch(left, right).matched


def test_oracle_size_guard():
    rng = random.Random(5)
    big1 = random_graph(rng, 9, 9)
    big2 = random_graph(rng, 9, 9)
    with pytest.raises(ValueError, match="8"):
        smatch_oracle(big1, big2)


def test_asymmetric_sizes():
    left = _graph("(w / want-01 :ARG0 (b / boy))")
    right = _graph("(w / want-01)")
    result = smatch_oracle(left, right)
    assert result.matched == 2  # instance want-01 and TOP
    assert result.precision == 2 / 4
    assert result.recall == 2 / 2
    assert smatch(left, right).matched == 2
    flipped = smatch_oracle(right, left)
    assert flipped.matched == 2
    assert flipped.precision == 2 / 2


def test_restarts_validation():
    with pytest.raises(ValueError):
        smatch(_graph(WANT_BOY), _graph(WANT_BOY), restarts=0)
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        fine_grained(_graph(WANT_BOY), _graph(WANT_BOY), restarts=0)


def test_invalid_graph_rejected():
    broken = AmrGraph(nodes={"a": "x", "b": "y"}, root="a")
    with pytest.raises(InvalidGraphError):
        smatch(broken, broken)


def test_fine_grained_identical():
    graph = _graph(
        '(w / win-01 :ARG0 (p / person :wiki "Q1" :name (n / name :op1 "Xu"))'
        " :ARG1 (c / championship-02 :ARG0 p :polarity -))"
    )
    scores = fine_grained(graph, graph)
    for key in ("smatch", "unlabeled", "no_wsd", "concepts", "wikification",
                "ner", "negation", "reentrancy", "srl"):
        assert scores[key] is not None, key
        assert scores[key].f1 == 1.0, key


def test_fine_grained_scores_its_base_through_smatch():
    # the same search as smatch(), on the same generator: every base
    # result, mapping included, is smatch's
    for left, right, restarts, seed in _searched_runs():
        scores = fine_grained(left, right, restarts=restarts, seed=seed)
        assert scores["smatch"] == smatch(left, right, restarts=restarts, seed=seed)


def test_fine_grained_absent_metrics_on_plain_pair():
    scores = fine_grained(_graph(WANT_BOY), _graph(WANT_GIRL))
    assert scores["wikification"] is None
    assert scores["ner"] is None
    assert scores["negation"] is None
    assert scores["reentrancy"] is None
    assert scores["srl"] is not None


def test_the_gold_side_alone_decides_an_absent_sub_metric():
    # an :ARG0 edge only on the prediction side scores no srl or
    # reentrancy; on the gold side it makes srl present, with nothing to
    # match on the prediction side but the two instances
    with_arg, without_arg = _graph(WANT_BOY), _graph("(w / want-01 :mod (b / boy))")
    scores = fine_grained(with_arg, without_arg)
    assert scores["srl"] is None and scores["reentrancy"] is None
    scores = fine_grained(without_arg, with_arg)
    assert (scores["srl"].matched, scores["srl"].left_total, scores["srl"].right_total) == (2, 2, 3)
    assert scores["reentrancy"] is None


def test_sense_difference_only_affects_wsd():
    left = _graph("(w / want-01 :ARG0 (b / boy))")
    right = _graph("(w / want-02 :ARG0 (b / boy))")
    scores = fine_grained(left, right)
    assert scores["no_wsd"].f1 == 1.0
    assert scores["smatch"].f1 < 1.0


def test_edge_label_difference_only_affects_labeled():
    left = _graph("(w / want-01 :ARG0 (b / boy))")
    right = _graph("(w / want-01 :ARG1 (b / boy))")
    scores = fine_grained(left, right)
    assert scores["unlabeled"].f1 == 1.0
    assert scores["smatch"].f1 < 1.0


def test_unlabeled_and_nowsd_dominate_smatch():
    pairs = _pair_generator(11)
    for _ in range(50):
        left, right = next(pairs)
        scores = fine_grained(left, right)
        assert scores["unlabeled"].f1 >= scores["smatch"].f1
        assert scores["no_wsd"].f1 >= scores["smatch"].f1


def test_scores_are_fractions_and_harmonic():
    pairs = _pair_generator(13)
    for _ in range(50):
        left, right = next(pairs)
        result = smatch(left, right)
        assert 0.0 <= result.precision <= 1.0
        assert 0.0 <= result.recall <= 1.0
        assert 0.0 <= result.f1 <= 1.0
        if result.precision + result.recall > 0:
            expected = (2 * result.precision * result.recall
                        / (result.precision + result.recall))
            assert math.isclose(result.f1, expected)
        assert result.matched <= min(result.left_total, result.right_total)


def test_aggregate_micro_average():
    first = smatch(_graph(WANT_BOY), _graph(WANT_GIRL))
    second = smatch(_graph(WANT_BOY), _graph(WANT_BOY))
    combined = aggregate([first, second, None])
    assert combined.matched == first.matched + second.matched
    assert combined.precision == combined.matched / (
        first.left_total + second.left_total
    )
    assert aggregate([None, None]) is None
    assert aggregate([]) is None


def test_bleu_identity():
    toks = ["the", "boy", "wants", "to", "go"]
    assert corpus_bleu_details([toks], [toks]).score == 1.0


def test_bleu_clipping_case():
    details = corpus_bleu_details(
        [["the", "the", "the", "the"]], [["the", "cat", "sat", "down"]]
    )
    assert details.precisions[0] == 0.25
    assert details.precisions[1] == 0.0
    assert details.score == 0.0
    assert details.brevity_penalty == 1.0


def test_bleu_disjoint_vocabulary():
    details = corpus_bleu_details([["x", "y", "z", "w"]], [["a", "b", "c", "d"]])
    assert details.score == 0.0


def test_bleu_brevity_penalty():
    details = corpus_bleu_details(
        [["a", "b", "c", "d", "e"]], [["a", "b", "c", "d", "e", "f"]]
    )
    assert details.precisions == (1.0, 1.0, 1.0, 1.0)
    assert math.isclose(details.brevity_penalty, math.exp(1 - 6 / 5))
    assert math.isclose(details.score, math.exp(1 - 6 / 5))


def test_bleu_longer_hypothesis_has_no_brevity_penalty():
    details = corpus_bleu_details(
        [["a", "b", "c", "d", "e", "f", "g"]], [["a", "b", "c", "d", "e"]]
    )
    assert details.precisions == (5 / 7, 4 / 6, 3 / 5, 2 / 4)
    assert details.brevity_penalty == 1.0
    assert details.score == (1 / 7) ** 0.25


def test_bleu_empty_hypotheses_score_zero():
    details = corpus_bleu_details([[], []], [["a", "b"], ["c"]])
    assert details.hypothesis_length == 0
    assert details.brevity_penalty == 0.0
    assert details.score == 0.0


def test_bleu_corpus_pooling():
    hyps = [["a", "b", "c", "d"], ["e", "f", "g", "h"]]
    refs = [["a", "b", "c", "d"], ["e", "f", "g", "h"]]
    assert corpus_bleu_details(hyps, refs).score == 1.0


def test_bleu_length_mismatch():
    with pytest.raises(ValueError, match="hypotheses"):
        corpus_bleu_details([["a"]], [["a"], ["b"]])
    with pytest.raises(ValueError, match="at least one"):
        corpus_bleu_details([], [])


# The public names of the package and of its metrics module.  The search
# and BLEU live in private modules, so metrics must re-export what they
# provide: bench/tracing.py wraps smatch, fine_grained and
# corpus_bleu_details as attributes of amrforge.metrics.  The brute-force
# oracle is a test reference (conftest.py), not API.
PACKAGE_EXPORTS = (
    "ALL_TAGS", "AmrGraph", "BleuResult", "CorpusError", "CorruptionConfig",
    "Diagnostic", "EMPTY_GRAPH_TOKENS", "FINETUNING_TAGS",
    "GraphStats", "InvalidGraphError", "MaskSchedule", "PRETRAINING_TAGS",
    "PenmanDocument", "PenmanSyntaxError", "PointerCapacityError", "RepairError",
    "SmatchResult", "StructureError", "SymbolInventory", "TaskError",
    "TaskSample", "TaskTag", "TripleSet", "UnknownTokenError", "Vocabulary",
    "build_corpus", "build_sample", "build_vocabulary", "collect_symbols",
    "compose", "compute_stats", "corpus_bleu_details", "corrupt_graph",
    "decode", "delinearize", "derive_rng", "empty_graph", "encode",
    "fine_grained", "graph_to_penman", "is_isomorphic", "linearize",
    "load_vocabulary", "mask_text",
    "node_edge_step", "parse_penman", "read_corpus", "repair",
    "restore_tokens", "sample_to_json", "save_vocabulary", "schedule_rate",
    "serialize_penman", "smatch", "subgraph_step", "to_triples", "validate",
)
METRICS_EXPORTS = (
    "BleuResult", "FINE_GRAINED_KEYS", "INSTANCE", "SmatchResult",
    "TOP_RELATION", "TripleSet", "aggregate", "corpus_bleu_details",
    "fine_grained", "smatch", "to_triples",
)


def test_public_names_resolve_and_the_oracle_is_not_among_them():
    for module, names in (
        (amrforge, PACKAGE_EXPORTS), (amrforge.metrics, METRICS_EXPORTS)
    ):
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert not hasattr(module, "smatch_oracle"), module.__name__
    # the package exports these names and no others besides its modules
    exported = {name for name, value in vars(amrforge).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(PACKAGE_EXPORTS)
