import itertools
import pickle
import random
from collections import defaultdict
from dataclasses import replace

import pytest

from amrforge import (
    AmrGraph,
    InvalidGraphError,
    StructureError,
    compute_stats,
    delinearize,
    is_isomorphic,
    parse_penman,
    validate,
)
from amrforge import amr
from amrforge.amr import (
    _adjacency,
    _joint_colors,
    _search_bijection,
    depth_bucket,
    reentrancy_bucket,
    require_valid,
    size_bucket,
)
from amrforge.synth import random_graph

from conftest import rename_nodes


def test_single_node_is_valid():
    assert validate(AmrGraph(nodes={"z0": "boy"}, root="z0")) == []


def test_self_edge_yields_one_cycle_diagnostic():
    graph = AmrGraph(
        nodes={"z1": "harm-01"}, edges=(("z1", ":ARG1", "z1"),), root="z1"
    )
    diags = validate(graph)
    assert len(diags) == 1
    assert diags[0].code == "cycle"
    assert "z1" in diags[0].message


def test_two_node_cycle_reports_node_sequence():
    graph = AmrGraph(
        nodes={"a": "x", "b": "y"},
        edges=(("a", ":r", "b"), ("b", ":s", "a")),
        root="a",
    )
    codes = [d.code for d in validate(graph)]
    assert codes == ["cycle"]


def test_disconnected_nodes_yield_one_connectivity_diagnostic():
    graph = AmrGraph(nodes={"a": "boy", "b": "girl"}, root="a")
    diags = validate(graph)
    assert len(diags) == 1
    assert diags[0].code == "disconnected"


def test_missing_root():
    diags = validate(AmrGraph(nodes={"a": "boy"}, root="x"))
    assert [d.code for d in diags] == ["missing-root"]


def test_every_violation_kind_is_reported_in_order():
    # A rooted graph with every violation that needs a root, including a
    # duplicated back edge (two cycle diagnostics), and a rootless one:
    # without a root, connectivity and reachability are not checked.
    rooted = AmrGraph(
        nodes={"r": "want-01", "a": "boy", "b": "go/02", "u": "up",
               "s1": "x", "s2": "y", "s3": "z", "c": "loop"},
        edges=(
            ("r", ":ARG0", "a"), ("r", ":ARG0", "a"), ("a", ":ARG1", "b"),
            ("b", ":ARG2", "a"), ("b", ":ARG2", "a"), ("u", "mod", "r"),
            ("a", ":ARG3", "ghost"), ("s1", ":r", "s2"), ("s2", ":r", "s1"),
            ("r", ":ARG1", "c"), ("c", ":ARG1", "c"),
        ),
        attributes=(("a", ":quant", "5"), ("a", ":quant", "5"),
                    ("ghost2", ":polarity", "-")),
        root="r",
    )
    assert [(d.code, d.message) for d in validate(rooted)] == [
        ("dangling-edge", "edge (a, :ARG3, ghost) references unknown node(s) "
                          "['ghost']"),
        ("dangling-attribute", "attribute (ghost2, :polarity, -) references "
                               "unknown node 'ghost2'"),
        ("duplicate-edge", "edge ('r', ':ARG0', 'a') appears 2 times"),
        ("duplicate-edge", "edge ('b', ':ARG2', 'a') appears 2 times"),
        ("duplicate-attribute", "attribute ('a', ':quant', '5') appears 2 times"),
        ("bad-symbol", "unusable concept 'go/02' on node 'b'"),
        ("bad-symbol", "unusable relation 'mod' on node 'u'"),
        ("disconnected", "component ['s1', 's2'] is not connected to the root"),
        ("disconnected", "component ['s3'] is not connected to the root"),
        ("unreachable", "nodes not reachable from the root along directed "
                        "edges: ['u']"),
        ("cycle", "cycle: a -> b -> a"),
        ("cycle", "cycle: a -> b -> a"),
        ("cycle", "cycle: c -> c"),
        ("cycle", "cycle: s1 -> s2 -> s1"),
    ]
    rootless = AmrGraph(
        nodes={"p": "x", "q": "y y"},
        edges=(("p", ":r", "q"), ("q", ":r", "p"), ("q", ":s", "nowhere")),
        root="missing",
    )
    assert [(d.code, d.message) for d in validate(rootless)] == [
        ("missing-root", "root 'missing' is not a node"),
        ("dangling-edge", "edge (q, :s, nowhere) references unknown node(s) "
                          "['nowhere']"),
        ("bad-symbol", "unusable concept 'y y' on node 'q'"),
        ("cycle", "cycle: p -> q -> p"),
    ]
    assert [(d.code, d.message) for d in validate(AmrGraph(nodes={}))] == [
        ("missing-root", "graph has no nodes"),
    ]


def test_dangling_edge():
    graph = AmrGraph(nodes={"a": "boy"}, edges=(("a", ":mod", "q"),), root="a")
    assert any(d.code == "dangling-edge" for d in validate(graph))


def test_dangling_attribute():
    graph = AmrGraph(
        nodes={"a": "boy"}, attributes=(("q", ":polarity", "-"),), root="a"
    )
    assert [d.code for d in validate(graph)] == ["dangling-attribute"]


def test_duplicate_edge_rejected_but_multi_edges_allowed():
    duplicated = AmrGraph(
        nodes={"a": "x", "b": "y"},
        edges=(("a", ":r", "b"), ("a", ":r", "b")),
        root="a",
    )
    assert any(d.code == "duplicate-edge" for d in validate(duplicated))
    multi = AmrGraph(
        nodes={"a": "x", "b": "y"},
        edges=(("a", ":r", "b"), ("a", ":s", "b")),
        root="a",
    )
    assert validate(multi) == []


def test_unreachable_node_is_flagged():
    # b is undirected-connected but cannot be reached from the root
    graph = AmrGraph(
        nodes={"a": "x", "b": "y"}, edges=(("b", ":r", "a"),), root="a"
    )
    assert [d.code for d in validate(graph)] == ["unreachable"]


def test_stats_on_modal_graph(golden):
    stats = compute_stats(golden)
    assert (stats.size, stats.depth, stats.reentrancies) == (4, 2, 0)
    assert stats.size_bucket == "1-10"
    assert stats.depth_bucket == "1-3"
    assert stats.reent_bucket == "0"


def test_stats_single_node():
    stats = compute_stats(AmrGraph(nodes={"z0": "boy"}, root="z0"))
    assert (stats.size, stats.depth, stats.reentrancies) == (1, 0, 0)


def test_stats_contrast_graph(contrast):
    assert compute_stats(contrast).reentrancies == 1


def test_stats_requires_valid_graph():
    graph = AmrGraph(nodes={"a": "x", "b": "y"}, root="a")
    with pytest.raises(InvalidGraphError):
        compute_stats(graph)


def test_bucket_boundaries():
    assert [size_bucket(n) for n in (10, 11, 20, 21)] == [
        "1-10",
        "11-20",
        "11-20",
        ">20",
    ]
    assert [depth_bucket(d) for d in (0, 3, 4, 6, 7)] == [
        "1-3",
        "1-3",
        "4-6",
        "4-6",
        ">6",
    ]
    assert [reentrancy_bucket(r) for r in (0, 1, 3, 4)] == ["0", "1-3", "1-3", ">3"]


def test_isomorphic_under_renaming():
    one = AmrGraph(nodes={"a": "boy"}, root="a")
    two = AmrGraph(nodes={"b": "boy"}, root="b")
    assert is_isomorphic(one, two)


def test_not_isomorphic_on_concept_mismatch():
    one = AmrGraph(nodes={"a": "boy"}, root="a")
    two = AmrGraph(nodes={"b": "girl"}, root="b")
    assert not is_isomorphic(one, two)


@pytest.mark.parametrize("one, two", [
    # a node more
    ("(a / x :r (b / y))", "(a / x :r (b / y) :s (c / z))"),
    # an edge more between the same nodes
    ("(a / x :r (b / y))", "(a / x :r (b / y) :s b)"),
    # an attribute more
    ("(a / x :r (b / y))", '(a / x :r (b / y) :mod "z")'),
    # the same concepts and relations, rooted at the other node
    ("(a / x :r (b / y))", "(b / y :r (a / x))"),
])
def test_not_isomorphic_on_counts_or_root(one, two):
    first, second = parse_penman(one).graph, parse_penman(two).graph
    assert not is_isomorphic(first, second)
    assert not is_isomorphic(second, first)


def test_modal_graph_isomorphic_to_shuffled_copy(golden):
    mapping = {"z0": "q7", "z1": "q3", "z2": "q9", "z3": "q1"}
    renamed = rename_nodes(golden, mapping)
    shuffled = AmrGraph(
        nodes=dict(reversed(list(renamed.nodes.items()))),
        edges=tuple(reversed(renamed.edges)),
        root=renamed.root,
    )
    assert is_isomorphic(golden, shuffled)


def test_not_isomorphic_on_edge_label_change(golden):
    edges = list(golden.edges)
    edges[0] = (edges[0][0], ":mod", edges[0][2])
    other = AmrGraph(nodes=golden.nodes, edges=edges, root=golden.root)
    assert not is_isomorphic(golden, other)


def test_isomorphism_beyond_exact_search_size():
    rng = random.Random(11)
    for _ in range(20):
        graph = random_graph(rng, 15, 30, max_reentrancies=4, attribute_prob=0.2)
        mapping = {n: f"w{i}" for i, n in enumerate(reversed(list(graph.nodes)))}
        renamed = rename_nodes(graph, mapping)
        shuffled = AmrGraph(
            nodes=dict(sorted(renamed.nodes.items())),
            edges=tuple(sorted(renamed.edges)),
            attributes=tuple(sorted(renamed.attributes)),
            root=renamed.root,
        )
        assert is_isomorphic(graph, shuffled)
        # flip one concept label: no bijection can exist any more
        victim = list(shuffled.nodes)[-1]
        nodes = dict(shuffled.nodes)
        nodes[victim] = nodes[victim] + "-distinct"
        assert not is_isomorphic(
            graph, AmrGraph(nodes=nodes, edges=shuffled.edges,
                            attributes=shuffled.attributes, root=shuffled.root)
        )


def _chain(length: int, concepts=None) -> AmrGraph:
    concepts = concepts or {}
    return AmrGraph(
        nodes={f"n{i}": concepts.get(i, "c") for i in range(length)},
        edges=tuple((f"n{i}", ":ARG0", f"n{i + 1}") for i in range(length - 1)),
        root="n0",
    )


def test_isomorphism_search_deeper_than_the_recursion_limit():
    chain = _chain(1500)
    assert is_isomorphic(chain, chain)
    assert not is_isomorphic(chain, _chain(1500, {750: "d"}))


def test_colour_refinement_stops_once_the_histograms_differ():
    # The concepts already tell the chains apart, so no refinement round
    # runs: the colours are the initial ones, one per depth plus one for
    # the changed node.  Refining on would take one round per step of the
    # chain before the difference reached its ends.
    first, second = _chain(1500), _chain(1500, {750: "d"})
    colors1, colors2 = _joint_colors(first, second, _adjacency(first),
                                     _adjacency(second))
    assert colors1 == {f"n{i}": i for i in range(1500)}
    assert colors2 == {**colors1, "n750": 1500}


def test_bijection_search_backtracks_like_brute_force():
    # One color for every node leaves all of the work to the search, which
    # looks for a bijection carrying every edge of the first graph onto an
    # edge of the second.  The second graph is a shuffled renaming of the
    # first, with one edge relabelled half of the time.
    rng = random.Random(5)
    for _ in range(80):
        first = random_graph(rng, 2, 6, max_reentrancies=3, concepts=("a",),
                             relations=(":r", ":s"))
        names = [f"w{i}" for i in range(len(first.nodes))]
        rng.shuffle(names)
        renamed = rename_nodes(first, dict(zip(first.nodes, names)))
        edges = list(renamed.edges)
        if edges and rng.random() < 0.5:
            s, r, t = edges.pop(rng.randrange(len(edges)))
            edges.append((s, ":s" if r == ":r" else ":r", t))
        second = AmrGraph(nodes=dict(sorted(renamed.nodes.items())),
                          edges=tuple(edges), root=renamed.root)
        expected = any(
            {(image[s], r, image[t]) for s, r, t in first.edges} <= set(edges)
            for image in (
                dict(zip(first.nodes, order))
                for order in itertools.permutations(second.nodes)
            )
        )
        colors1 = dict.fromkeys(first.nodes, 0)
        colors2 = dict.fromkeys(second.nodes, 0)
        assert _search_bijection(first, second, _adjacency(first), colors1,
                                 colors2) == expected


def test_isomorphism_builds_each_table_once(monkeypatch):
    # per graph: the out- and in-edge tables, shared by the colouring and
    # the search, and the attribute table of the initial colours
    rng = random.Random(7)
    first = random_graph(rng, 50, 50, max_reentrancies=5, attribute_prob=0.2)
    second = rename_nodes(first, {n: f"w{n}" for n in first.nodes})
    calls = []

    def counted(triples, real=amr._by_source):
        calls.append(triples)
        return real(triples)

    monkeypatch.setattr(amr, "_by_source", counted)
    assert is_isomorphic(first, second)
    assert len(calls) == 6


def test_attributes_affect_isomorphism():
    one = AmrGraph(
        nodes={"a": "x"}, attributes=(("a", ":polarity", "-"),), root="a"
    )
    two = AmrGraph(nodes={"b": "x"}, root="b")
    assert not is_isomorphic(one, two)


def test_stats_invariant_under_renaming():
    rng = random.Random(3)
    for _ in range(50):
        graph = random_graph(rng, 1, 20, max_reentrancies=3)
        stats = compute_stats(graph)
        mapping = {n: f"v{i}" for i, n in enumerate(reversed(list(graph.nodes)))}
        renamed_stats = compute_stats(rename_nodes(graph, mapping))
        assert (stats.size, stats.depth, stats.reentrancies) == (
            renamed_stats.size,
            renamed_stats.depth,
            renamed_stats.reentrancies,
        )


def _tree_height(graph: AmrGraph) -> int:
    children = defaultdict(list)
    for s, _, t in graph.edges:
        children[s].append(t)

    def height(node):
        if not children[node]:
            return 0
        return 1 + max(height(child) for child in children[node])

    return height(graph.root)


def test_tree_depth_matches_recursive_height_oracle():
    rng = random.Random(17)
    for _ in range(100):
        tree = random_graph(rng, 1, 25, max_reentrancies=0)
        assert compute_stats(tree).depth == _tree_height(tree)


def test_depth_and_reentrancy_bounds():
    rng = random.Random(23)
    for _ in range(100):
        graph = random_graph(rng, 1, 25, max_reentrancies=5)
        stats = compute_stats(graph)
        assert stats.depth <= stats.size - 1
        assert stats.reentrancies <= stats.size - 1


def test_generator_produces_valid_graphs():
    rng = random.Random(29)
    for _ in range(200):
        graph = random_graph(rng, 1, 30, max_reentrancies=5, attribute_prob=0.4)
        assert validate(graph) == []


def test_symbols_colliding_with_the_grammar_are_invalid():
    cases = [
        AmrGraph(nodes={"a b": "x"}, root="a b"),            # id with a space
        AmrGraph(nodes={"a": "<Z0>"}, root="a"),             # pointer-shaped concept
        AmrGraph(nodes={"a": "x y"}, root="a"),              # concept with a space
        AmrGraph(nodes={"a": "x", "b": "y"},
                 edges=(("a", "mod", "b"),), root="a"),      # relation missing ':'
        AmrGraph(nodes={"a": "x"},
                 attributes=(("a", ":op1", "<Z3>"),), root="a"),
        AmrGraph(nodes={"a": ""}, root="a"),                  # empty concept
        AmrGraph(nodes={"a": "x"},                            # escaped closing quote
                 attributes=(("a", ":op1", '"a\\"'),), root="a"),
    ]
    for graph in cases:
        assert any(d.code == "bad-symbol" for d in validate(graph)), graph


def test_constant_that_names_a_node_is_invalid():
    # PENMAN would read the bare constant b back as an edge to node b
    graph = AmrGraph(nodes={"a": "x", "b": "y"}, edges=(("a", ":ARG0", "b"),),
                     attributes=(("a", ":mod", "b"),), root="a")
    assert [(d.code, d.message) for d in validate(graph)] == [
        ("bad-symbol", "constant 'b' under ('a', ':mod') names a node")]
    quoted = replace(graph, attributes=(("a", ":mod", '"b"'),))
    assert validate(quoted) == []
    # delinearize names its nodes apart from every constant, so z0 is valid
    assert validate(replace(graph, attributes=(("a", ":mod", "z0"),))) == []


# whitespace to str.split, so a plain symbol of the token text form cannot
# carry it, beyond the space, tab, CR and LF that the PENMAN grammar splits at
TEXT_ONLY_SPACES = ["\f", "\v", "\xa0", "\u2028", "\x1c", "\x1d", "\x1e",
                    "\x1f", "\x85"]


@pytest.mark.parametrize("space", TEXT_ONLY_SPACES, ids=repr)
def test_symbols_with_any_whitespace_are_invalid(space):
    word = f"fo{space}o"
    cases = {
        "node id": AmrGraph(nodes={word: "x"}, root=word),
        "concept": AmrGraph(nodes={"a": word}, root="a"),
        "relation": AmrGraph(nodes={"a": "x", "b": "y"},
                             edges=(("a", f":{word}", "b"),), root="a"),
        "constant": AmrGraph(nodes={"a": "x"},
                             attributes=(("a", ":mod", word),), root="a"),
    }
    for label, graph in cases.items():
        assert [d.code for d in validate(graph)] == ["bad-symbol"], label
    with pytest.raises(InvalidGraphError, match="unusable concept"):
        parse_penman(f"(a / {word})")
    with pytest.raises(StructureError, match="unusable concept"):
        delinearize(["(", "<Z0>", word, ")"])


def test_quoted_constants_with_spaces_are_valid():
    graph = AmrGraph(
        nodes={"n": "name"},
        attributes=(("n", ":op1", '"New York"'),),
        root="n",
    )
    assert validate(graph) == []


def test_nodes_are_read_only():
    nodes = {"a": "x"}
    graph = AmrGraph(nodes=nodes, root="a")
    with pytest.raises(TypeError):
        graph.nodes["a"] = "y"
    with pytest.raises(TypeError):
        graph.nodes["b"] = "y"
    nodes["a"] = "y"  # the graph keeps its own copy
    assert graph.nodes == {"a": "x"}


def test_pickle_round_trip_keeps_equality():
    rng = random.Random(43)
    for _ in range(20):
        graph = random_graph(rng, 1, 20, max_reentrancies=3, attribute_prob=0.3)
        validate(graph)
        copy = pickle.loads(pickle.dumps(graph))
        assert copy == graph
        assert validate(copy) == []
        with pytest.raises(TypeError):
            copy.nodes[copy.root] = "y"


def test_valid_graph_is_checked_once(diagnose_calls):
    graph = random_graph(random.Random(47), 10, 20, max_reentrancies=3)
    assert validate(graph) == []
    assert validate(graph) == []
    require_valid(graph)
    compute_stats(graph)
    assert is_isomorphic(graph, graph)
    assert diagnose_calls == [graph]


def test_copies_and_invalid_graphs_are_not_marked(diagnose_calls):
    graph = random_graph(random.Random(53), 10, 20, max_reentrancies=3)
    validate(graph)
    copy = replace(graph)
    assert copy == graph
    assert validate(copy) == []
    assert len(diagnose_calls) == 2
    broken = AmrGraph(nodes={"a": "x", "b": "y"}, root="a")
    assert validate(broken)
    assert validate(broken)
    assert len(diagnose_calls) == 4


def test_each_walk_runs_only_when_its_linear_check_fails(monkeypatch):
    # calls are counted, not timed: a valid graph needs no duplicate count
    # and no structural walk, and a duplicate edge needs only the count
    graph = random_graph(random.Random(59), 300, 300, max_reentrancies=30)
    parents = defaultdict(set)
    for s, _, t in graph.edges:
        parents[t].add(s)
    assert any(len(sources) > 1 for sources in parents.values())
    calls = {name: [] for name in ("_closure", "_find_cycles", "Counter")}
    for name, seen in calls.items():
        def counted(*args, real=getattr(amr, name), seen=seen):
            seen.append(args)
            return real(*args)
        monkeypatch.setattr(amr, name, counted)

    assert validate(graph) == []
    assert {name: len(seen) for name, seen in calls.items()} == {
        "_closure": 0, "_find_cycles": 0, "Counter": 0}

    duplicate = AmrGraph(nodes={"a": "x", "b": "y"},
                         edges=(("a", ":ARG0", "b"),) * 2, root="a")
    assert [d.code for d in validate(duplicate)] == ["duplicate-edge"]
    assert {name: len(seen) for name, seen in calls.items()} == {
        "_closure": 0, "_find_cycles": 0, "Counter": 1}
