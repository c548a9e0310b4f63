import itertools
import json
import pickle
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from amrforge import (
    AmrGraph,
    EMPTY_GRAPH_TOKENS,
    InvalidGraphError,
    RepairError,
    StructureError,
    delinearize,
    is_isomorphic,
    linearize,
    repair,
    validate,
)
from amrforge.corrupt import CorruptionConfig, corrupt_graph
from amrforge.linearize import _walk, linearize_with_layout
from amrforge.penman import graph_to_penman
from amrforge.synth import random_graph
from amrforge.tokens import (
    from_text, is_pointer, is_relation, pointer, pointer_index, to_text,
)

from conftest import GOLDEN_SEQUENCE


def test_golden_linearization(golden):
    assert to_text(linearize(golden)) == GOLDEN_SEQUENCE


def test_single_node(golden):
    assert to_text(linearize(AmrGraph(nodes={"z": "boy"}, root="z"))) == "( <Z0> boy )"


def test_reentrant_node_emits_bare_pointer(contrast):
    toks = linearize(contrast)
    pointer_uses = [i for i, t in enumerate(toks) if t == "<Z2>"]
    assert len(pointer_uses) == 2
    second = pointer_uses[1]
    assert toks[second - 1] == ":ARG1"
    assert toks[second + 1] == ")"


def test_pointer_indices_are_dense_in_first_visit_order():
    rng = random.Random(7)
    for _ in range(50):
        graph = random_graph(rng, 1, 25, max_reentrancies=4)
        seen = []
        for token in linearize(graph):
            k = pointer_index(token)
            if k is not None and k not in seen:
                seen.append(k)
        assert seen == list(range(len(graph.nodes)))


def test_token_counts():
    rng = random.Random(13)
    for _ in range(100):
        graph = random_graph(rng, 1, 25, max_reentrancies=5, attribute_prob=0.3)
        toks = linearize(graph)
        n, e, a = len(graph.nodes), len(graph.edges), len(graph.attributes)
        assert toks.count("(") == n
        assert toks.count(")") == n
        assert sum(1 for t in toks if is_pointer(t)) == n + (e - (n - 1))
        assert sum(1 for t in toks if is_relation(t)) == e + a


def test_determinism(golden):
    assert linearize(golden) == linearize(golden)


def test_delinearize_golden_sequence(golden):
    assert is_isomorphic(delinearize(from_text(GOLDEN_SEQUENCE)), golden)


def test_delinearize_single_node():
    graph = delinearize(from_text("( <Z0> boy )"))
    assert graph.nodes == {"z0": "boy"}
    assert graph.root == "z0"


def test_round_trips():
    rng = random.Random(19)
    for _ in range(300):
        graph = random_graph(rng, 1, 30, max_reentrancies=5, attribute_prob=0.3)
        assert is_isomorphic(delinearize(linearize(graph)), graph)


def test_attributes_round_trip():
    graph = AmrGraph(
        nodes={"p": "person", "n": "name"},
        edges=(("p", ":name", "n"),),
        attributes=(("p", ":wiki", "-"), ("n", ":op1", '"Fengzhu"')),
        root="p",
    )
    toks = linearize(graph)
    assert ":wiki" in toks and "-" in toks
    assert is_isomorphic(delinearize(toks), graph)


def test_linearize_rejects_invalid_graph():
    with pytest.raises(InvalidGraphError):
        linearize(AmrGraph(nodes={"a": "x", "b": "y"}, root="a"))


def test_to_text_rejects_tokens_with_whitespace():
    with pytest.raises(ValueError, match="''"):
        to_text(["(", "", ")"])
    # each token reads back alone, but joined they read as one quoted symbol
    assert from_text('"a') == ['"a'] and from_text('b"') == ['b"']
    assert from_text('"a b"') == ['"a b"']
    with pytest.raises(ValueError, match=r"""token '"a' has no text form"""):
        to_text(["(", '"a', 'b"', ")"])
    toks = ["(", "<Z0>", "name", ":op1", '"New York"', ")"]
    assert from_text(to_text(toks)) == toks


def test_nodes_are_named_apart_from_every_symbol():
    # a node named z0 would make the constant z0 an edge in PENMAN
    graph = delinearize(from_text("( <Z0> x :mod z0 )"))
    assert dict(graph.nodes) == {"zz0": "x"}
    assert graph.attributes == (("zz0", ":mod", "z0"),)
    assert graph_to_penman(graph) == "(zz0 / x :mod z0)"
    # the fewest z's that no symbol takes with a number: the concept z1 and
    # the constant zz0 take z and zz, while z01 and 5,000 digits take none
    toks = from_text("( <Z0> z1 :mod zz0 :mod z01 :ARG0 ( <Z1> b ) )")
    assert set(delinearize(toks).nodes) == {"zzz0", "zzz1"}
    huge = ["(", "<Z0>", "a", ":mod", "z" + "1" * 5000, ")"]
    assert set(delinearize(huge).nodes) == {"zz0"}
    assert set(delinearize(from_text("( <Z0> a :mod z01 )")).nodes) == {"z0"}


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("( <Z0> boy", "missing close-paren", 3),
        ("( <Z0> boy ) )", "unbalanced", 4),
        ("( <Z0> go :arg0 )", "has no target", 3),
        ("( <Z0> go :arg0 <Z5> )", "before definition", 4),
        ("( <Z0> go :arg0 ( <Z0> boy ) )", "more than once", 5),
        ("( <Z0> boy ) ( <Z1> girl )", "after the graph", 4),
        ("( <Z0> )", "missing concept", 2),
    ],
)
def test_delinearize_structure_errors(text, message, position):
    with pytest.raises(StructureError, match=message) as info:
        delinearize(from_text(text))
    assert info.value.position == position


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("( <Z0> a/b )", "unusable concept 'a/b'", 2),
        ("( <Z0> : )", "unusable concept ':'", 2),
        ('( <Z0> want-01 :ARG0 x"y )', "unusable constant 'x\"y'", 4),
        ("( <Z0> want-01 :a/b ( <Z1> boy ) )", "unusable relation ':a/b'", 3),
        ("( <Z0> go :ARG0 ( <Z1> \" ) )", "unusable concept '\"'", 6),
    ],
)
def test_delinearize_rejects_symbols_validate_rejects(text, message, position):
    with pytest.raises(StructureError, match=message) as info:
        delinearize(from_text(text))
    assert info.value.position == position


@pytest.mark.parametrize(
    "text,expected",
    [
        ('( <Z0> want-01 :ARG0 x"y )', "( <Z0> want-01 )"),
        ("( <Z0> want-01 :a/b ( <Z1> boy ) )", "( <Z0> want-01 )"),
        ("( <Z0> want-01 :ARG0 ( <Z1> a/b :mod ( <Z2> big ) ) :ARG1 ( <Z3> go ) )",
         "( <Z0> want-01 :ARG1 ( <Z1> go ) )"),
        ("( <Z0> : :ARG0 ( <Z1> go ) )", "( <Z0> go )"),
    ],
)
def test_repair_drops_unusable_symbols(text, expected):
    assert repair(from_text(text)) == from_text(expected)


def test_repair_without_a_usable_concept_raises():
    with pytest.raises(RepairError):
        repair(from_text("( <Z0> a/b )"))


def test_delinearize_rejects_cycle_through_back_reference():
    with pytest.raises(StructureError, match="cycle"):
        delinearize(from_text("( <Z0> a :r ( <Z1> b :s <Z0> ) )"))


def test_delinearize_rejects_empty():
    with pytest.raises(StructureError):
        delinearize([])


def test_pointer_index_reads_the_pointer_pattern():
    # every string of up to five characters over pointer parts, digits of
    # other scripts, digit look-alikes that are not decimal, and whitespace
    alphabet = "<Zz>09\u0663\u00b2\u2460 \n"
    for length in range(6):
        for chars in itertools.product(alphabet, repeat=length):
            token = "".join(chars)
            match = re.fullmatch(r"<Z(\d+)>", token)
            expected = int(match.group(1)) if match else None
            assert pointer_index(token) == expected, token


def test_pointer_with_digits_of_another_script():
    graph = delinearize(["(", "<Z\u0663>", "boy", ")"])  # ARABIC-INDIC DIGIT THREE
    assert graph.nodes == {"z3": "boy"}
    assert graph.root == "z3"


def test_opens_without_pointers_take_the_next_free_ids():
    line = ["(", "<Z0>", "a"] + [":ARG0", "(", "b"] * 20_000
    graph = delinearize(repair(line))
    assert graph.nodes == {"z0": "a"} | {f"z{k}": "b" for k in range(1, 20_001)}
    with pytest.raises(StructureError) as info:
        delinearize(line)
    assert str(info.value) == "expected a pointer after '(' (token 5)"


def test_repair_returns_valid_input_unchanged():
    toks = from_text(GOLDEN_SEQUENCE)
    assert repair(toks) == toks
    sparse = from_text("( <Z5> boy )")  # non-dense pointers still delinearize
    assert repair(sparse) == sparse


def test_repair_appends_missing_close_paren():
    assert repair(from_text("( <Z0> boy")) == from_text("( <Z0> boy )")


def test_repair_drops_dangling_relation():
    repaired = repair(from_text("( <Z0> go :arg0 )"))
    assert repaired == from_text("( <Z0> go )")
    delinearize(repaired)


def test_repair_drops_undefined_pointer():
    repaired = repair(from_text("( <Z0> go :arg0 <Z7> ) )"))
    assert repaired == from_text("( <Z0> go )")


def test_repair_keeps_first_concept_for_duplicate_definition():
    repaired = repair(from_text("( <Z0> boy :mod ( <Z0> girl ) )"))
    assert repaired == from_text("( <Z0> boy )")


def test_repair_duplicate_definition_keeps_children():
    toks = from_text("( <Z0> a :m ( <Z1> b ) :n ( <Z1> c :o ( <Z2> d ) ) )")
    graph = delinearize(repair(toks))
    assert graph.nodes["z1"] == "b"
    assert ("z1", ":o", "z2") in graph.edges


def test_repair_drops_cycle_creating_reference():
    repaired = repair(from_text("( <Z0> a :r ( <Z1> b :s <Z0> ) ) extra"))
    graph = delinearize(repaired)
    assert ("z1", ":s", "z0") not in graph.edges


def test_repair_unrecoverable_raises():
    with pytest.raises(RepairError):
        repair(from_text(":arg0 )"))
    with pytest.raises(RepairError):
        repair([])


def test_fallback_tokens_delinearize():
    graph = delinearize(list(EMPTY_GRAPH_TOKENS))
    assert graph.nodes == {"z0": "amr-empty"}


def _mutate(toks, rng):
    toks = list(toks)
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(5)
        if kind == 0 and toks:
            del toks[rng.randrange(len(toks))]
        elif kind == 1:
            toks.insert(rng.randint(0, len(toks)), rng.choice(["(", ")"]))
        elif kind == 2:
            toks.insert(rng.randint(0, len(toks)), ":mod")
        elif kind == 3:
            toks.insert(rng.randint(0, len(toks)), f"<Z{rng.randrange(12)}>")
        elif kind == 4 and toks:
            toks = toks[: rng.randrange(len(toks)) + 1]
    return toks


def test_repair_output_always_delinearizes_and_is_idempotent():
    rng = random.Random(31)
    repaired_count = 0
    for _ in range(400):
        graph = random_graph(rng, 1, 15, max_reentrancies=3, attribute_prob=0.2)
        broken = _mutate(linearize(graph), rng)
        try:
            repaired = repair(broken)
        except RepairError:
            continue
        repaired_count += 1
        delinearize(repaired)
        assert repair(repaired) == repaired
    assert repaired_count > 350  # almost everything should be salvageable


def test_layout_positions(golden):
    toks, layout = linearize_with_layout(golden)
    # keys in pointer order: the k-th span opens with <Zk>
    assert list(layout.span) == ["z0", "z1", "z2", "z3"]
    for k, (open_pos, _) in enumerate(layout.span.values()):
        assert toks[open_pos + 1] == pointer(k)
    open_pos, close_pos = layout.span["z1"]
    assert toks[open_pos] == "(" and toks[close_pos] == ")"
    assert toks[open_pos + 2] == "go"
    assert toks[open_pos - 1] == ":domain"
    assert layout.span["z0"] == (0, len(toks) - 1)
    # below the root, each span's introducing relation precedes its open
    assert [toks[o - 1] for o, _ in list(layout.span.values())[1:]] == [
        ":domain", ":arg0", ":polarity"]
    assert layout.ref_positions == []


def test_repair_preserves_back_reference_when_closing():
    repaired = repair(from_text("( <Z0> a :r ( <Z1> b ) :s <Z1>"))
    assert repaired == from_text("( <Z0> a :r ( <Z1> b ) :s <Z1> )")
    graph = delinearize(repaired)
    assert ("z0", ":s", "z1") in graph.edges


BAD_SYMBOLS = ["a/b", 'x"y', ":a/b", ":", '"', ":a(b", "a(b"]


def test_repair_output_is_always_a_valid_graph():
    rng = random.Random(37)
    for _ in range(400):
        graph = random_graph(rng, 1, 15, max_reentrancies=3, attribute_prob=0.3)
        broken = linearize(graph)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(broken))
            if rng.random() < 0.5:
                broken[at] = rng.choice(BAD_SYMBOLS)
            else:
                broken.insert(at, rng.choice(BAD_SYMBOLS))
        broken = _mutate(broken, rng) if rng.random() < 0.3 else broken
        try:
            repaired = repair(broken)
        except RepairError:
            continue
        # replace() drops the validity mark, so validate checks afresh
        assert validate(replace(delinearize(repaired))) == []
        assert repair(repaired) == repaired


def test_walked_graphs_are_valid_without_the_mark():
    fixture = Path(__file__).parent / "data" / "walker_golden.json"
    cases = json.loads(fixture.read_text(encoding="utf-8"))["sequences"]
    sequences = [from_text(case["tokens"]) for case in cases]
    rng = random.Random(41)
    for _ in range(400):
        graph = random_graph(rng, 1, 30, max_reentrancies=6, attribute_prob=0.3,
                             relations=(":ARG0", ":ARG1", ":mod"))
        broken = linearize(graph)
        if rng.random() < 0.3:
            broken.insert(rng.randrange(len(broken)), rng.choice(BAD_SYMBOLS))
        sequences.append(_mutate(broken, rng))
    walked = 0
    for toks in sequences:
        graph, _ = _walk(toks)
        if graph is not None:
            walked += 1
            assert validate(replace(graph)) == [], toks
    assert walked > 800


def test_each_linearization_is_a_fresh_list(contrast):
    first = linearize(contrast)
    second = linearize(contrast)
    assert first == second and first is not second
    first[:] = ["changed"]
    assert linearize_with_layout(contrast)[0] == second


def test_kept_linearization_survives_corruption_and_rendering(contrast):
    fresh = linearize_with_layout(replace(contrast))
    linearize_with_layout(contrast)
    _, edits = corrupt_graph(contrast, CorruptionConfig(subgraph_rate=1.0),
                             random.Random(3))
    assert edits[0][0] == "subgraph"  # a span was cut from a copy
    graph_to_penman(contrast)
    assert linearize_with_layout(contrast) == fresh


def test_copies_of_a_graph_start_without_its_linearization(contrast):
    linearize(contrast)
    for copy in (replace(contrast), pickle.loads(pickle.dumps(contrast))):
        assert copy._linear is None
        assert copy == contrast
