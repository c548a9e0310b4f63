import random
from collections import Counter

import pytest

from amrforge import (
    AmrGraph,
    CorruptionConfig,
    compose,
    corrupt_graph,
    derive_rng,
    linearize,
    mask_text,
    node_edge_step,
    restore_tokens,
    subgraph_step,
)
from amrforge.corrupt import _cut_span, _half_up
from amrforge.linearize import linearize_with_layout
from amrforge.synth import random_graph
from amrforge.tokens import MARKERS, MASK, OPEN, pointer_digits, to_text

from conftest import edge_relations, replay_edits


def _kinds(edits):
    return Counter(kind for kind, _, _ in edits)


def test_config_defaults_and_validation():
    config = CorruptionConfig()
    assert (config.node_rate, config.edge_rate) == (0.15, 0.15)
    assert config.subgraph_rate == 0.35
    assert config.text_rate == 0.15
    with pytest.raises(ValueError):
        CorruptionConfig(node_rate=1.2)
    with pytest.raises(ValueError):
        CorruptionConfig(subgraph_rate=-0.1)


def test_rounding_is_half_up():
    assert _half_up(0.15 * 7) == 1  # 1.05
    assert _half_up(0.15 * 20) == 3
    assert _half_up(0.15 * 10) == 2  # 1.5 rounds away from zero
    assert _half_up(0.0) == 0


def test_zero_rates_are_identity(golden):
    config = CorruptionConfig(node_rate=0.0, edge_rate=0.0)
    toks, edits = compose(golden, [node_edge_step(config.node_rate, config.edge_rate)],
                          random.Random(0))
    assert toks == linearize(golden)
    assert not edits


def test_masking_concept_and_relation_tokens(golden):
    # one of four nodes and one of three edges; this seed picks the node
    # labeled "go" and the edge introducing "boy"
    clean, layout = linearize_with_layout(golden)
    concept, relation = layout.span["z1"][0] + 2, layout.span["z2"][0] - 1
    assert relation in edge_relations(clean)
    config = CorruptionConfig(node_rate=0.25, edge_rate=1 / 3)
    toks, edits = compose(golden, [node_edge_step(config.node_rate, config.edge_rate)],
                          random.Random(4))
    assert to_text(toks) == (
        "( <Z0> possible :domain ( <Z1> [mask] [mask] ( <Z2> boy ) ) "
        ":polarity ( <Z3> negative ) )"
    )
    assert toks.count(MASK) == 2
    assert edits == (("node", concept, ("go",)),
                     ("edge", relation, (":arg0",)))
    assert restore_tokens(toks, edits) == linearize(golden)


def test_pointers_and_parens_never_masked():
    rng = random.Random(5)
    config = CorruptionConfig(node_rate=1.0, edge_rate=1.0)
    for _ in range(30):
        graph = random_graph(rng, 2, 20, max_reentrancies=3)
        toks, _ = compose(graph, [node_edge_step(config.node_rate, config.edge_rate)],
                          rng)
        clean = linearize(graph)
        for before, after in zip(clean, toks):
            if before in ("(", ")") or pointer_digits(before) is not None:
                assert after == before


def test_mask_count_exactness():
    rng = random.Random(9)
    config = CorruptionConfig()
    for _ in range(100):
        graph = random_graph(rng, 2, 30, max_reentrancies=4, attribute_prob=0.3)
        toks, edits = compose(graph, [node_edge_step(config.node_rate, config.edge_rate)],
                              rng)
        n, e = len(graph.nodes), len(graph.edges)
        expected = _half_up(0.15 * n) + _half_up(0.15 * e)
        assert toks.count(MASK) == expected
        assert len(edits) == expected
        assert replay_edits(graph, edits)[0] == toks
        assert _kinds(edits)["node"] == _half_up(0.15 * n)
        assert _kinds(edits)["edge"] == _half_up(0.15 * e)


def test_seven_node_graph_masks_exactly_one_node():
    rng = random.Random(1)
    config = CorruptionConfig(edge_rate=0.0)
    graph = random_graph(rng, 7, 7, max_reentrancies=0)
    toks, edits = compose(graph, [node_edge_step(config.node_rate, config.edge_rate)],
                          rng)
    assert [kind for kind, _, _ in edits] == ["node"]
    assert replay_edits(graph, edits)[0] == toks  # a concept
    assert toks.count(MASK) == 1


def test_subgraph_removal_collapses_whole_span(golden):
    # this seed removes the span of "go", which holds "boy"
    config = CorruptionConfig(subgraph_rate=1.0)
    toks, edits = compose(golden, [subgraph_step(config.subgraph_rate)],
                          random.Random(1))
    assert to_text(toks) == "( <Z0> possible [mask] :polarity ( <Z3> negative ) )"
    assert toks.count(MASK) == 1
    clean, layout = linearize_with_layout(golden)
    start, end = layout.span["z1"][0] - 1, layout.span["z1"][1]
    assert edits == (("subgraph", start, tuple(clean[start : end + 1])),)
    assert {n for n, (o, _) in layout.span.items() if start <= o <= end} == {"z1", "z2"}
    assert restore_tokens(toks, edits) == linearize(golden)


def test_subgraph_removal_skips_root_and_orphaning_spans(contrast):
    # The root span is never removed.  The spans of "a" and "h" define h,
    # which is referenced outside them; the span of "o" only references
    # h, so removing it is fine.
    config = CorruptionConfig(subgraph_rate=1.0)
    _, layout = linearize_with_layout(contrast)
    opening = {o: node for node, (o, _) in layout.span.items()}
    removed = set()
    for seed in range(200):
        toks, edits = compose(contrast, [subgraph_step(config.subgraph_rate)],
                              random.Random(seed))
        assert toks.count(MASK) == 1
        [(kind, start, original)] = edits
        assert kind == "subgraph"
        inside = range(start, start + len(original))
        # the removed span opens right after its introducing relation
        removed.add((opening[start + 1],
                     frozenset(opening[o] for o in inside if o in opening)))
    assert removed == {
        ("s", frozenset("s")), ("p", frozenset("poy")),
        ("o", frozenset("oy")), ("y", frozenset("y")),
    }


def test_mask_subgraph_on_single_node_is_identity():
    graph = AmrGraph(nodes={"z0": "boy"}, root="z0")
    toks, edits = compose(graph, [subgraph_step(1.0)], random.Random(0))
    assert toks == linearize(graph)
    assert not edits


def test_mask_subgraph_output_is_structurally_sound():
    rng = random.Random(21)
    config = CorruptionConfig(subgraph_rate=1.0)
    masked = 0
    for _ in range(200):
        graph = random_graph(rng, 2, 25, max_reentrancies=4, attribute_prob=0.2)
        toks, edits = compose(graph, [subgraph_step(config.subgraph_rate)], rng)
        depth = 0
        defined, referenced = set(), set()
        for i, token in enumerate(toks):
            depth += (token == "(") - (token == ")")
            assert depth >= 0  # balanced
            pointer = pointer_digits(token)
            if pointer is not None:
                (defined if toks[i - 1] == "(" else referenced).add(pointer)
        assert depth == 0
        assert referenced <= defined  # no orphaned references
        if edits:
            masked += 1
            # one cut of a whole non-root span, which holds a node
            assert replay_edits(graph, edits)[0] == toks
            assert [kind for kind, _, _ in edits] == ["subgraph"]
            assert edits[0][2][1] == OPEN
            assert restore_tokens(toks, edits) == linearize(graph)
    assert masked > 150


def test_mask_subgraph_selection_frequency():
    rng = random.Random(33)
    config = CorruptionConfig(subgraph_rate=0.35)
    trials = 4000
    selected = 0
    graph = random_graph(random.Random(2), 20, 20, max_reentrancies=2)
    for _ in range(trials):
        _, edits = compose(graph, [subgraph_step(config.subgraph_rate)], rng)
        selected += 1 if edits else 0
    assert abs(selected / trials - 0.35) < 0.025


def test_mask_text_identity_and_saturation():
    toks = ["the", "boy", "wants", "to", "go"]
    rng = random.Random(0)
    out, edits = mask_text(toks, 0.0, rng)
    assert out == toks and not edits
    out, edits = mask_text(toks, 1.0, rng)
    assert out == [MASK] * 5
    assert edits == tuple(("text", i, (word,)) for i, word in enumerate(toks))
    assert restore_tokens(out, edits) == toks


def test_mask_text_count():
    toks = [f"w{i}" for i in range(20)]
    out, edits = mask_text(toks, 0.15, random.Random(3))
    assert out.count(MASK) == 3
    assert [kind for kind, _, _ in edits] == ["text"] * 3
    positions = [pos for _, pos, _ in edits]
    assert positions == sorted(set(positions))
    assert all(out[pos] == MASK and (toks[pos],) == original
               for _, pos, original in edits)


def test_mask_text_counts_only_words_not_masked_yet():
    toks = ["the", MASK, "boy", MASK, MASK, "goes"]
    for seed in range(20):
        out, edits = mask_text(toks, 0.5, random.Random(seed))
        # half of the three words, rounded half up: a [mask] is not drawn
        assert len(edits) == 2 and out.count(MASK) == 5
        assert all(original != (MASK,) for _, _, original in edits)


def test_mask_text_rejects_markers():
    with pytest.raises(ValueError, match="marker"):
        mask_text(["<s>", "x", "</s>"], 0.5, random.Random(0))


def test_compose_empty_is_identity(golden):
    toks, edits = compose(golden, [], random.Random(0))
    assert toks == linearize(golden)
    assert not edits


def test_compose_zero_rates_identity(golden):
    toks, edits = compose(
        golden,
        [node_edge_step(0.0, 0.0), subgraph_step(0.0)],
        random.Random(0),
    )
    assert toks == linearize(golden)
    assert not edits


def test_compose_subgraph_then_node_edge_is_deterministic(golden):
    steps = [subgraph_step(1.0), node_edge_step(0.5, 0.5)]
    first = compose(golden, steps, derive_rng(42, 0))
    second = compose(golden, steps, derive_rng(42, 0))
    assert first[0] == second[0]
    assert first[1] == second[1]
    different = compose(golden, steps, derive_rng(43, 0))
    assert first[0] != different[0] or first[1] != different[1]


def test_compose_masks_only_remaining_elements():
    rng = random.Random(55)
    for _ in range(50):
        graph = random_graph(rng, 5, 20, max_reentrancies=2)
        toks, edits = corrupt_graph(
            graph, CorruptionConfig(subgraph_rate=1.0, node_rate=1.0, edge_rate=1.0),
            rng,
        )
        # all remaining concepts/relations are masked, none doubly
        for i, token in enumerate(toks):
            if token == "(":  # ( <Zk> concept
                assert toks[i + 2] == MASK
        assert restore_tokens(toks, edits) == linearize(graph)


def test_a_second_node_edge_step_draws_only_what_the_first_left(golden):
    clean, layout = linearize_with_layout(golden)
    concepts, relations = len(layout._concepts), len(layout._relations)
    for seed in range(10):
        steps = [node_edge_step(0.5, 0.5), node_edge_step(1.0, 1.0)]
        toks, edits = compose(golden, steps, random.Random(seed))
        # the second step masks what the first left, and no [mask] again
        assert _kinds(edits) == {"node": concepts, "edge": relations}
        assert all(original != (MASK,) for _, _, original in edits)
        assert restore_tokens(toks, edits) == list(clean)


@pytest.mark.parametrize("subgraph_rate", [0.0, 1.0])
def test_composed_record_names_every_masked_element(subgraph_rate):
    # every step's edits are recorded, not only the first's: at full rates
    # they mask each concept and edge relation the cut left
    rng = random.Random(13)
    config = CorruptionConfig(subgraph_rate=subgraph_rate, node_rate=1.0,
                              edge_rate=1.0)
    removals = 0
    for _ in range(50):
        graph = random_graph(rng, 2, 25, max_reentrancies=4, attribute_prob=0.2)
        toks, edits = corrupt_graph(graph, config, rng)
        replayed, masked = replay_edits(graph, edits)
        assert replayed == toks
        clean, layout = linearize_with_layout(graph)
        removals += len(masked["subgraph"])

        def kept(pos):
            return not any(pos in cut for cut in masked["subgraph"])

        assert sorted(r.start for r in masked["node"]) == [
            o + 2 for o, _ in layout.span.values() if kept(o + 2)]
        assert sorted(r.start for r in masked["edge"]) == [
            pos for pos in edge_relations(clean) if kept(pos)]
    assert removals == 0 if subgraph_rate == 0.0 else removals > 40


def test_compose_records_each_subgraph_removal(golden, contrast):
    # every removal from either graph leaves a removable span; the second
    # cut may hold the first one's [mask] or lie beside it
    steps = [subgraph_step(1.0), subgraph_step(1.0)]
    nested = set()
    for graph in (golden, contrast):
        for seed in range(40):
            toks, edits = compose(graph, steps, random.Random(seed))
            assert [kind for kind, _, _ in edits] == ["subgraph"] * 2
            assert replay_edits(graph, edits)[0] == toks
            assert restore_tokens(toks, edits) == linearize(graph)
            nested.add(MASK in edits[1][2])
    assert nested == {True, False}
    # a zero-rate step after a cut changes nothing
    alone = compose(golden, [subgraph_step(1.0)], random.Random(0))
    merged = compose(golden, [subgraph_step(1.0), node_edge_step(0.0, 0.0)],
                     random.Random(0))
    assert merged == alone


def test_restore_rejects_mismatched_record(golden):
    config = CorruptionConfig(subgraph_rate=1.0)
    toks, edits = compose(golden, [subgraph_step(config.subgraph_rate)],
                          random.Random(1))
    with pytest.raises(ValueError, match="record mismatch"):
        restore_tokens(linearize(golden), edits)


@pytest.mark.parametrize("position", [-1, 2, 5])
def test_restore_rejects_a_position_outside_the_sequence(position):
    # unchecked, -1 would find the last [mask] and insert "x" before it,
    # and 2 or 5 would raise IndexError
    edits = (("node", position, ("x",)),)
    with pytest.raises(ValueError, match="record mismatch"):
        restore_tokens(["a", MASK], edits)


def test_derive_rng_is_reproducible():
    assert derive_rng(7, 3).random() == derive_rng(7, 3).random()
    assert derive_rng(7, 3).random() != derive_rng(7, 4).random()


def test_statistical_node_mask_fraction():
    rng = random.Random(77)
    config = CorruptionConfig()
    total_fraction = 0.0
    runs = 2000
    for _ in range(runs):
        graph = random_graph(rng, 20, 40, max_reentrancies=3)
        _, edits = compose(graph, [node_edge_step(config.node_rate, config.edge_rate)],
                           rng)
        total_fraction += _kinds(edits)["node"] / len(graph.nodes)
    assert abs(total_fraction / runs - 0.15) < 0.01


def test_reverse_order_composition_still_restores(golden):
    # node/edge masking first, span removal second: the removed slice
    # contains earlier masks and the edits must still unwind exactly
    steps = [node_edge_step(0.5, 0.5), subgraph_step(1.0)]
    toks, edits = compose(golden, steps, derive_rng(3, 0))
    assert restore_tokens(toks, edits) == linearize(golden)


def _fresh_targets(layout):
    """Concept positions, edge-relation positions and removable spans,
    computed from ``span`` and ``ref_positions`` alone, by definition."""
    opens = [o for o, _ in layout.span.values()]
    root = min(layout.span, key=lambda node: layout.span[node][0])
    relations = [o - 1 for o in opens if o] + [pos - 1 for pos, _ in layout.ref_positions]

    def removable(node):
        start, end = layout.span[node]
        inside = {n for n, (o, _) in layout.span.items() if start <= o <= end}
        return all(start <= pos <= end for pos, n in layout.ref_positions if n in inside)

    eligible = [n for n in layout.span if n != root and removable(n)]
    return sorted(o + 2 for o in opens), sorted(relations), eligible


def _targets(layout):
    return layout._concepts, layout._relations, layout._eligible


def test_layout_targets_equal_their_definition_fresh_and_after_a_cut():
    # each layout derives its targets once and keeps them; a layout that a
    # cut returns has moved positions and fewer spans, so derives its own
    rng = random.Random(36)
    config = CorruptionConfig(subgraph_rate=1.0)
    cuts = 0
    for _ in range(150):
        graph = random_graph(rng, 1, 30, max_reentrancies=5, attribute_prob=0.2)
        corrupt_graph(graph, config, rng)  # the shared layout keeps its targets
        toks, layout = linearize_with_layout(graph)
        assert _targets(layout) == _fresh_targets(layout)
        for node in layout._eligible:
            _, cut, _ = _cut_span(toks, layout, node)
            assert _targets(cut) == _fresh_targets(cut)
            cuts += 1
        assert _targets(layout) == _fresh_targets(layout)
    assert cuts > 1000


def test_every_returned_token_list_is_the_callers_own(golden):
    # an unwalked copy: every call below reads one kept walk of this graph
    graph = AmrGraph(golden.nodes, golden.edges, golden.attributes, golden.root)
    text = ["the", "boy", "wants", "to", "go"]
    calls = {
        "linearize": lambda: linearize(graph),
        "compose, no step": lambda: compose(graph, [], random.Random(0))[0],
        "compose, no cut": lambda: compose(graph, [subgraph_step(0.0)],
                                           random.Random(0))[0],
        "compose": lambda: compose(graph, [subgraph_step(1.0), node_edge_step(0.5, 0.5)],
                                   random.Random(0))[0],
        "corrupt_graph": lambda: corrupt_graph(graph, CorruptionConfig(),
                                               random.Random(0))[0],
        "mask_text, no pick": lambda: mask_text(text, 0.0, random.Random(0))[0],
        "mask_text": lambda: mask_text(text, 0.4, random.Random(0))[0],
    }
    for name, call in calls.items():
        first = call()
        expected = list(first)
        first[2] = "HACKED"
        first.append("HACKED")
        assert call() == expected, name
    assert linearize(graph) == linearize(golden)
    kept = linearize_with_layout(graph)[0]  # a tuple: no caller can write it
    assert type(kept) is tuple and kept == tuple(linearize(golden))
    assert text == ["the", "boy", "wants", "to", "go"]


def _scanning_mask_text(toks, rate, rng):
    """mask_text as it was before it took every position as a candidate
    where the text holds no marker and no [mask]: it scanned each token."""
    for token in toks:
        if token in MARKERS:
            raise ValueError(f"text to corrupt must not contain marker {token}")
    candidates = [i for i, token in enumerate(toks) if token != MASK]
    picks = rng.sample(candidates, _half_up(rate * len(candidates)))
    out = list(toks)
    for pos in picks:
        out[pos] = MASK
    return out, tuple(("text", pos, (toks[pos],)) for pos in sorted(picks))


def test_mask_text_draws_as_the_scan_did_with_and_without_masks():
    texts = random.Random(5)
    for seed in range(400):
        mask_share = texts.choice([0.0, 0.0, 0.2, 0.6, 1.0])
        toks = [MASK if texts.random() < mask_share else f"w{texts.randrange(9)}"
                for _ in range(texts.randrange(30))]
        rate = texts.choice([0.0, 0.15, 0.5, texts.random(), 1.0])
        ours, theirs = random.Random(seed), random.Random(seed)
        assert mask_text(toks, rate, ours) == _scanning_mask_text(toks, rate, theirs)
        assert ours.random() == theirs.random()  # and consumed the same draws


def test_mask_text_names_the_first_of_two_markers():
    for toks in (["x", "</s>", "y", "<g>"], ["x", MASK, "<g>", "<s>"]):
        with pytest.raises(ValueError) as error:
            mask_text(toks, 0.5, random.Random(0))
        first = next(token for token in toks if token in MARKERS)
        assert str(error.value) == f"text to corrupt must not contain marker {first}"
