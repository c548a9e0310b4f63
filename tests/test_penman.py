import io
import random

import pytest

from amrforge import (
    AmrGraph,
    CorpusError,
    InvalidGraphError,
    PenmanDocument,
    PenmanSyntaxError,
    compute_stats,
    is_isomorphic,
    parse_penman,
    read_corpus,
    serialize_penman,
)
from amrforge.penman import graph_to_penman
from amrforge.synth import random_graph

from conftest import CONTRAST_TEXT


def test_parse_simple_graph():
    document = parse_penman("(g / go-01 :arg0 (b / boy))")
    graph = document.graph
    assert graph.root == "g"
    assert graph.nodes == {"g": "go-01", "b": "boy"}
    assert graph.edges == (("g", ":arg0", "b"),)
    assert graph.attributes == ()


def test_parse_contrast_case_counts_one_reentrancy():
    graph = parse_penman(CONTRAST_TEXT).graph
    assert compute_stats(graph).reentrancies == 1
    references = [e for e in graph.edges if e[2] == "h"]
    assert len(references) == 2


def test_duplicate_variable_is_a_syntax_error():
    with pytest.raises(PenmanSyntaxError, match="duplicate variable"):
        parse_penman("(a / and :op1 (a / x))")


def test_unbalanced_parens_report_position():
    with pytest.raises(PenmanSyntaxError, match="unbalanced"):
        parse_penman("(a / boy")
    with pytest.raises(PenmanSyntaxError, match="line 1"):
        parse_penman("(a / boy))")


def test_missing_concept():
    with pytest.raises(PenmanSyntaxError, match="missing concept"):
        parse_penman("(a / )")


def test_relation_without_target():
    with pytest.raises(PenmanSyntaxError, match="has no target"):
        parse_penman("(a / boy :mod)")


def test_metadata_is_ordered_and_byte_preserving():
    text = "# ::id x-1\n# ::snt  two  spaces  kept \n(b / boy)"
    document = parse_penman(text)
    assert list(document.metadata) == ["id", "snt"]
    assert document.metadata["snt"] == " two  spaces  kept "
    rendered = serialize_penman(document)
    assert "# ::snt  two  spaces  kept " in rendered.split("\n")


def test_quoted_constants_keep_quotes():
    graph = parse_penman('(p / person :name (n / name :op1 "Fengzhu"))').graph
    assert ("n", ":op1", '"Fengzhu"') in graph.attributes


def test_unquoted_constants_are_attributes():
    graph = parse_penman("(p / possible-01 :polarity -)").graph
    assert graph.attributes == (("p", ":polarity", "-"),)
    assert "(p / possible-01 :polarity -)" == graph_to_penman(graph)


def test_forward_reference_resolves_as_edge():
    graph = parse_penman("(a / and :op1 k :op2 (k / keep-02))").graph
    assert ("a", ":op1", "k") in graph.edges
    assert compute_stats(graph).reentrancies == 1


def test_cyclic_reference_strict_vs_lenient():
    text = "(z1 / harm-01 :ARG1 z1)"
    with pytest.raises(InvalidGraphError):
        parse_penman(text)
    document = parse_penman(text, strict=False)
    assert any(d.code == "cycle" for d in document.diagnostics)


def test_serialize_round_trip(golden):
    document = PenmanDocument(metadata={"id": "m"}, graph=golden)
    reparsed = parse_penman(serialize_penman(document))
    assert is_isomorphic(reparsed.graph, golden)
    assert reparsed.metadata == {"id": "m"}


def test_serialize_uses_bare_variable_for_reentrant_reference(contrast):
    text = graph_to_penman(contrast)
    assert text.count("(h / harm-01") == 1
    assert ":ARG1 h" in text


def test_random_round_trips():
    rng = random.Random(41)
    for _ in range(200):
        graph = random_graph(rng, 1, 30, max_reentrancies=5, attribute_prob=0.3)
        document = PenmanDocument(metadata={}, graph=graph)
        again = parse_penman(serialize_penman(document)).graph
        assert is_isomorphic(graph, again)


def test_read_corpus_empty():
    assert list(read_corpus(io.StringIO(""))) == []


def test_read_corpus_two_documents():
    text = "(a / boy)\n\n(b / girl)\n"
    documents = list(read_corpus(io.StringIO(text)))
    assert len(documents) == 2
    assert [d.graph.nodes[d.graph.root] for d in documents] == ["boy", "girl"]


def test_read_corpus_lenient_flags_malformed_document():
    blocks = ["(x%d / thing :mod (y%d / other))" % (i, i) for i in range(10)]
    blocks[4] = "(broken / oops :mod"
    text = "\n\n".join(blocks) + "\n"
    documents = list(read_corpus(io.StringIO(text), strict=False))
    assert len(documents) == 10
    flagged = [i for i, d in enumerate(documents) if d.diagnostics]
    assert flagged == [4]
    assert documents[4].graph.nodes == {"z0": "amr-empty"}


def test_read_corpus_strict_aborts_with_index():
    text = "(a / boy)\n\n(broken / oops :mod\n"
    with pytest.raises(CorpusError) as info:
        list(read_corpus(io.StringIO(text)))
    assert info.value.index == 1


def test_read_corpus_accepts_bytes_stream():
    payload = io.BytesIO("(a / boy)\n\n(b / girl)\n".encode("utf-8"))
    assert len(list(read_corpus(payload))) == 2


def test_read_corpus_skips_byte_order_mark_in_bytes():
    payload = "\ufeff(a / boy)\n\n(b / girl)\n".encode("utf-8")
    for stream in (payload, io.BytesIO(payload)):
        graphs = [document.graph for document in read_corpus(stream)]
        assert [graph.nodes for graph in graphs] == [{"a": "boy"}, {"b": "girl"}]


def test_source_spans_count_the_byte_order_mark():
    payload = "\ufeff(a / b)\n\n# ::snt é\n(c / d)\n".encode("utf-8")
    for stream in (payload, io.BytesIO(payload), payload.decode("utf-8")):
        documents = list(read_corpus(stream))
        assert [document.graph.nodes for document in documents] == [
            {"a": "b"}, {"c": "d"}]
        assert [document.metadata for document in documents] == [{}, {"snt": "é"}]


def test_crlf_spans_agree_across_input_kinds():
    payload = "\ufeff(a / b)\r\n\r\n(c / d)\r\n".encode("utf-8")
    reads = [
        list(read_corpus(stream))
        for stream in (payload, io.BytesIO(payload), payload.decode("utf-8"))
    ]
    for documents in reads:
        assert documents == reads[0]
    assert [document.graph.nodes for document in reads[0]] == [{"a": "b"}, {"c": "d"}]


def test_serialize_rejects_invalid_graph():
    broken = AmrGraph(nodes={"a": "x", "b": "y"}, root="a")
    with pytest.raises(InvalidGraphError):
        serialize_penman(PenmanDocument(metadata={}, graph=broken))


def test_parse_rejects_trailing_content():
    with pytest.raises(PenmanSyntaxError, match="after the graph"):
        parse_penman("(a / boy) (b / girl)")


def test_parser_is_total_over_garbage():
    # any failure must be a positioned syntax error (or a validation
    # error), never an unhandled crash
    rng = random.Random(59)
    pieces = ["(", ")", "/", ":mod", ":ARG0", "a", "b1", "go-01", '"x y"',
              '"unterminated', "-", "5", "#", "\n", " "]
    for _ in range(2000):
        text = " ".join(rng.choice(pieces) for _ in range(rng.randint(1, 25)))
        try:
            parse_penman(text)
        except (PenmanSyntaxError, InvalidGraphError):
            pass
