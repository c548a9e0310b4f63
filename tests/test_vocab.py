import random
from collections import Counter

import pytest

from amrforge import (
    AmrGraph,
    PenmanDocument,
    PointerCapacityError,
    SymbolInventory,
    UnknownTokenError,
    build_vocabulary,
    collect_symbols,
    decode,
    encode,
    linearize,
    load_vocabulary,
    parse_penman,
    save_vocabulary,
)

from amrforge.tokens import MASK, strip_sense

from conftest import modal_graph


def _doc():
    return PenmanDocument(metadata={}, graph=modal_graph())


def test_collect_symbols_on_modal_graph():
    inventory = collect_symbols([_doc()])
    assert sorted(inventory.relations) == [":arg0", ":domain", ":polarity"]
    assert sorted(inventory.concepts) == ["boy", "go", "negative", "possible"]
    assert all(count == 1 for count in inventory.relations.values())


def test_collect_symbols_counts_attribute_relations():
    inventory = collect_symbols([parse_penman("(p / possible :polarity -)")])
    assert inventory.relations == {":polarity": 1}
    assert inventory.concepts == {"possible": 1}


def test_collect_symbols_empty_corpus():
    inventory = collect_symbols([])
    assert not inventory.relations and not inventory.concepts


def test_collect_symbols_counts_double_on_repeat():
    inventory = collect_symbols([_doc(), _doc()])
    assert set(inventory.relations) == {":arg0", ":domain", ":polarity"}
    assert all(count == 2 for count in inventory.relations.values())
    assert all(count == 2 for count in inventory.concepts.values())


def test_minimal_vocabulary_has_seven_tokens():
    vocabulary = build_vocabulary(["a"], None, max_pointers=1)
    assert len(vocabulary) == 7
    assert set(vocabulary.token_of) == {"a", "<s>", "</s>", "<g>", "</g>",
                                        "[mask]", "<Z0>"}


def test_required_tokens_always_present():
    vocabulary = build_vocabulary(["x"], collect_symbols([_doc()]), max_pointers=4)
    for token in ("<s>", "</s>", "<g>", "</g>", "[mask]"):
        assert token in vocabulary.id_of


def test_pointer_block_is_contiguous():
    vocabulary = build_vocabulary(["x", "y"], None, max_pointers=8)
    ids = [vocabulary.id_of[f"<Z{k}>"] for k in range(8)]
    assert ids == list(range(ids[0], ids[0] + 8))


def test_base_token_colliding_with_pointers_is_rejected():
    with pytest.raises(ValueError, match="pointer"):
        build_vocabulary(["<Z3>"], None)


@pytest.mark.parametrize("base, max_pointers, message", [
    ([], 512, "base vocabulary must not be empty"),
    (["x"], 0, "max_pointers must be at least 1"),
])
def test_build_vocabulary_rejects_bad_arguments(base, max_pointers, message):
    with pytest.raises(ValueError, match=message):
        build_vocabulary(base, None, max_pointers=max_pointers)


def test_encode_decode_round_trip_of_linearization():
    inventory = collect_symbols([_doc()])
    vocabulary = build_vocabulary(["(", ")"], inventory, max_pointers=16)
    toks = linearize(modal_graph())
    assert decode(encode(toks, vocabulary), vocabulary) == toks


def test_empty_sequence_round_trip():
    vocabulary = build_vocabulary(["a"], None)
    assert encode([], vocabulary) == []
    assert decode([], vocabulary) == []


def test_unknown_tokens_are_listed():
    vocabulary = build_vocabulary(["a"], None)
    with pytest.raises(UnknownTokenError) as info:
        encode(["a", "mystery", "riddle"], vocabulary)
    assert info.value.tokens == ["mystery", "riddle"]


def test_pointer_capacity_error():
    vocabulary = build_vocabulary(["a"], None, max_pointers=4)
    with pytest.raises(PointerCapacityError):
        encode(["<Z4>"], vocabulary)
    # the number delinearize reads: any Nd digits, leading zeros dropped
    vocabulary = build_vocabulary(["a"], None, max_pointers=10)
    for token in ("<Z09>", "<Z\u0669>", "<Z0000000009>"):
        with pytest.raises(UnknownTokenError):
            encode([token], vocabulary)
    for token in ("<Z10>", "<Z010>", "<Z\u0661\u0660>", "<Z99>", "<Z" + "1" * 5000 + ">"):
        with pytest.raises(PointerCapacityError):
            encode([token], vocabulary)


def test_pointer_capacity_error_for_more_digits_than_int_converts():
    vocabulary = build_vocabulary(["a"], None, max_pointers=4)
    with pytest.raises(PointerCapacityError):
        encode(["<Z" + "1" * 5000 + ">"], vocabulary)


def test_decode_range_error():
    vocabulary = build_vocabulary(["a"], None, max_pointers=1)
    with pytest.raises(ValueError, match="outside"):
        decode([999], vocabulary)


def test_vocabulary_build_is_deterministic():
    inventory = collect_symbols([_doc()])
    first = build_vocabulary(["(", ")"], inventory)
    second = build_vocabulary(["(", ")"], inventory)
    assert first.token_of == second.token_of
    assert first.partitions == second.partitions


def test_partition_labels():
    inventory = collect_symbols(
        [PenmanDocument(metadata={}, graph=modal_graph())]
    )
    vocabulary = build_vocabulary(["hello"], inventory)
    assert vocabulary.partitions["hello"] == "base"
    assert vocabulary.partitions["<s>"] == "marker"
    assert vocabulary.partitions["[mask]"] == "mask"
    assert vocabulary.partitions["<Z0>"] == "pointer"
    assert vocabulary.partitions[":arg0"] == "relation"
    assert vocabulary.partitions["boy"] == "base"


def test_a_repeated_token_keeps_its_first_id_and_partition():
    inventory = SymbolInventory(relations=Counter(), concepts=Counter({MASK: 1, "boy": 1}))
    vocabulary = build_vocabulary(["<s>", MASK, "x"], inventory, max_pointers=2)
    assert vocabulary.token_of[:3] == ("<s>", MASK, "x")
    assert [vocabulary.partitions[t] for t in ("<s>", MASK, "x")] == ["base"] * 3
    assert vocabulary.token_of[-1] == "boy"  # after three more markers and two pointers
    assert len(vocabulary) == 3 + 3 + 2 + 1
    assert vocabulary.id_of == {token: i for i, token in enumerate(vocabulary.token_of)}


def test_frame_concepts_are_labeled_frame():
    from amrforge.penman import parse_penman

    document = parse_penman("(w / want-01 :ARG0 (b / boy))")
    vocabulary = build_vocabulary(["x"], collect_symbols([document]))
    assert vocabulary.partitions["want-01"] == "frame"
    assert vocabulary.partitions["boy"] == "base"


# concept: what no_wsd strips it to, and its vocabulary partition, as
# recorded when each decision had its own pattern; the two Arabic-Indic
# digits count as digits
SENSE_SUFFIXES = {
    "go-01": ("go", "frame"),
    "want-123": ("want", "frame"),
    "x--01": ("x-", "frame"),
    "run-01-02": ("run-01", "frame"),
    "-01-02": ("-01", "frame"),
    "-01": ("", "base"),
    "a-1": ("a-1", "base"),
    "a-01b": ("a-01b", "base"),
    "boy": ("boy", "base"),
    "go-\u0660\u0661": ("go", "frame"),
    "a-0\u0661": ("a", "frame"),
    "-\u0660\u0661": ("", "base"),
    "a-\u0661": ("a-\u0661", "base"),
}


def test_one_sense_suffix_rule_strips_and_partitions():
    inventory = SymbolInventory(relations=Counter(), concepts=Counter(SENSE_SUFFIXES))
    vocabulary = build_vocabulary(["x"], inventory)
    for concept, (stripped, partition) in SENSE_SUFFIXES.items():
        assert strip_sense(concept) == stripped, concept
        assert vocabulary.partitions[concept] == partition, concept


def test_large_random_round_trip():
    inventory = collect_symbols([_doc()])
    vocabulary = build_vocabulary(["(", ")"], inventory, max_pointers=32)
    rng = random.Random(0)
    pool = list(vocabulary.token_of)
    toks = [rng.choice(pool) for _ in range(10000)]
    assert decode(encode(toks, vocabulary), vocabulary) == toks


def test_save_and_load(tmp_path):
    inventory = collect_symbols([_doc()])
    vocabulary = build_vocabulary(["(", ")"], inventory, max_pointers=8)
    path = tmp_path / "vocab.txt"
    save_vocabulary(vocabulary, path)
    loaded = load_vocabulary(path)
    assert loaded == vocabulary
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[vocabulary.id_of["boy"]] == "boy"


@pytest.mark.parametrize("space", ["\r", "\f", "\v", "\x1c", "\x85", "\u2028"],
                         ids=repr)
def test_save_and_load_keep_line_breaks_inside_quoted_concepts(tmp_path, space):
    # a quoted concept may hold any of these; only "\n" ends a saved line
    graph = AmrGraph(nodes={"a": f'"x{space}y"', "b": "boy"},
                     edges=(("a", ":mod", "b"),), root="a")
    document = PenmanDocument(metadata={}, graph=graph)
    vocabulary = build_vocabulary(["(", ")"], collect_symbols([document]),
                                  max_pointers=4)
    path = tmp_path / "vocab.txt"
    save_vocabulary(vocabulary, path)
    assert load_vocabulary(path) == vocabulary


def test_load_vocabulary_skips_a_byte_order_mark(tmp_path):
    vocabulary = build_vocabulary(["(", ")"], collect_symbols([_doc()]))
    path = tmp_path / "vocab.txt"
    save_vocabulary(vocabulary, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    loaded = load_vocabulary(path)
    assert loaded == vocabulary
    assert encode(["("], loaded) == [0]


def test_save_vocabulary_writes_both_files_or_neither(tmp_path):
    vocabulary = build_vocabulary(["(", ")"], collect_symbols([_doc()]))
    path = tmp_path / "vocab.txt"
    sidecar = tmp_path / "vocab.txt.partitions.json"
    sidecar.mkdir()  # the sidecar cannot be written
    with pytest.raises(IsADirectoryError):
        save_vocabulary(vocabulary, path)
    assert [p.name for p in tmp_path.iterdir()] == [sidecar.name]
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(IsADirectoryError):
        save_vocabulary(vocabulary, path)
    assert path.read_text(encoding="utf-8") == "old\n"
    # an existing pair keeps its bytes when a token cannot be encoded
    sidecar.rmdir()
    save_vocabulary(vocabulary, path)
    pair = path.read_bytes(), sidecar.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        save_vocabulary(build_vocabulary(["(", "\ud800"]), path)
    assert (path.read_bytes(), sidecar.read_bytes()) == pair
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, sidecar.name]
