"""Every reader, fed mangled input, fails only with a documented error.

Hypothesis mutates the PENMAN text and the token line of small ``synth``
graphs: it inserts, deletes and replaces pieces drawn from the grammar's
hard characters.  Three properties must hold:

- ``parse_penman`` (strict and lenient), ``read_corpus`` on bytes and the
  ``delinearize`` command's line reader (strict and lenient) raise only
  ``ValueError`` subclasses, amrforge's documented errors; the lenient
  ``read_corpus`` and line reader raise nothing;
- each graph a lenient reader hands on scores Smatch 1.0 against itself.
  Where a document has diagnostics that graph is the fallback, as in the
  command line's reader;
- every PENMAN text a lenient reader leads to parses strictly, and to
  the graph handed on: the command's rendering of a token line, which
  hands on ``delinearize(repair(tokens))``, and ``graph_to_penman`` of
  each graph a PENMAN reader hands on.
"""

import contextlib
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from amrforge import (
    RepairError, delinearize, graph_to_penman, is_isomorphic, linearize,
    parse_penman, read_corpus, repair, smatch, synth,
)
from amrforge.cli import _penman_of_line
from amrforge.penman import empty_graph
from amrforge.tokens import from_text, to_text

# delimiters, quotes, escapes, line ends, a byte-order mark, non-ASCII,
# pointers, quoted strings with spaces, alignments and node-like names
PIECES = ("(", ")", "/", ":", "~", '"', "\\", "\r", "\n", " ", "\ufeff", "é",
          "名", "<Z0>", "<Z3>", '"New York"', '"a b\\"', '"\\\\"', ":ARG0",
          "~e.2", "z1", "# ::id 1\n", "")


@st.composite
def mutated(draw, render):
    """The rendering of a small graph, after one to four edits, each of
    which replaces up to three characters with a piece (or with none),
    and then, one time in two, cut short.  Half the edits start at a
    quote, where the string rules meet."""
    graph = synth.random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), 1, 10,
                               max_reentrancies=2, attribute_prob=0.3)
    text = render(graph)
    for _ in range(draw(st.integers(1, 4))):
        quotes = [i for i, c in enumerate(text) if c == '"']
        if quotes and draw(st.booleans()):
            start = draw(st.sampled_from(quotes))
        else:
            start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 3)))
        text = text[:start] + draw(st.sampled_from(PIECES)) + text[end:]
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _check_handed_on(document):
    graph = empty_graph() if document.diagnostics else document.graph
    assert smatch(graph, graph).f1 == 1.0
    assert is_isomorphic(parse_penman(graph_to_penman(graph)).graph, graph)


@settings(max_examples=250, deadline=None)
@given(mutated(graph_to_penman))
@example('(n / name :op1 "a\\" :op2 "New York")')
def test_penman_readers_raise_only_documented_errors(text):
    with contextlib.suppress(ValueError):
        parse_penman(text)
    try:
        document = parse_penman(text, strict=False)
    except ValueError:  # a syntax error: read_corpus hands on the fallback
        pass
    else:
        _check_handed_on(document)
    with contextlib.suppress(ValueError):
        list(read_corpus(text.encode("utf-8")))
    for document in read_corpus(text.encode("utf-8"), strict=False):
        _check_handed_on(document)


@settings(max_examples=250, deadline=None)
@given(mutated(lambda graph: to_text(linearize(graph))))
@example('( <Z0> thing :op1 "a\\" )')  # no reader accepts "a\" in PENMAN
@example('( <Z0> thing :op1 z1 :ARG0 ( <Z3> boy )')  # z1 names no node
def test_token_line_readers_raise_only_documented_errors(line):
    with contextlib.suppress(ValueError):
        _penman_of_line(line, strict=True)
    # the lenient rendering is that of delinearize(repair(tokens))
    try:
        graph = delinearize(repair(from_text(line)))
    except RepairError:
        graph = empty_graph()
    assert smatch(graph, graph).f1 == 1.0
    rendered = parse_penman(_penman_of_line(line, strict=False)).graph
    assert is_isomorphic(rendered, graph)
