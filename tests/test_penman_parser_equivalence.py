"""The PENMAN reader pinned to a golden fixture.

``data/penman_errors_golden.json`` holds seeded fuzzed PENMAN documents
and what ``parse_penman`` makes of each in strict mode: the
``PenmanSyntaxError`` message, line and column, the
``InvalidGraphError`` message, or a digest of the metadata and the parsed
graph.  The documents are ``synth`` graphs and hand-made graphs with
quoted and escaped constants, written on one or several lines with
spaces, tabs and ``\\r``, after zero to three metadata or comment lines,
then mutated: characters deleted or inserted (parentheses, ``/``, quotes,
backslashes, a backslash before a newline), stretches duplicated, the
text truncated, content appended after the graph, or a backslash put at
the very end.  The results were recorded with the earlier tokenizer,
which walked the text one character at a time, so a regex tokenizer must
reproduce every message and position exactly.  Regenerate the fixture
only when a change of results is intended:

    PYTHONPATH=src python tests/test_penman_parser_equivalence.py --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys
from pathlib import Path

from amrforge import (
    InvalidGraphError, PenmanSyntaxError, graph_to_penman, parse_penman, synth,
)

FIXTURE = Path(__file__).parent / "data" / "penman_errors_golden.json"
FIXTURE_SEED = 7919
DOCUMENTS = 1500

HAND_MADE = (
    '(c / city :name (n / name :op1 "New York" :op2 "a ) b" :op3 "(") :mod c2'
    ' :quant 3 :ARG0 (c2 / "quoted concept" :polarity -))',
    '(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b :op1 "x \\" y")'
    ' :wiki "back\\\\slash" :op1 "tab\tinside")',
    '(a / and :op1 k :op2 (k / keep-02 :ARG1 (s / "a ) b")))',
    '(x / [mask] :ARG0 (y / [mask] :ARG1 x2) :ARG1 (x2 / thing))',
)

# Texts each fuzzed document is unlikely to hit on its own: escaped
# newlines inside strings (which do not advance the line count), a
# backslash at the very end, empty and metadata-only documents.
EDGE_CASES = (
    "",
    "   \n\t\n",
    "# ::id 1\n# ::snt only metadata\n",
    "(a / b",
    "(a / b))",
    "(a / b) (c / d)",
    "(a / b) extra",
    '(a / "unterminated',
    '(a / b :op1 "x\\\ny" / )',
    '(a / b :op1 "x\\\ny")\n  :ARG0 (c / d)',
    '(a / b :op1 "x\\\ny"\n  :ARG0 (c / d)',
    '(a / b :op1 "x\\',
    '(a / b :op1 "x\\"',
    '(a / b :op1 "x\ny")',
    "(a / b\r\n\t:ARG0 (c / d\r\n))",
    "(a\t/\tb\t:ARG0\t(c / d) / )",
    "# ::id 2\n\n  # plain comment\n(a / b :ARG0 (c / d) :ARG1 q)",
    "# ::id 3\n(a / b :ARG0 a)",
    "(a / b :ARG0 (c / d :ARG1 a))",
    "(a / b :ARG0 (c / d) :ARG0 c)",
    "(a / b :polarity - :polarity -)",
    "(a / b :ARG0)",
    "(a / b :ARG0 :ARG1 c)",
    "(a / b c)",
    "(a b)",
    "(a /)",
    "( / b)",
    "()",
    ")",
    "/",
    ":ARG0 (a / b)",
    "(a / b :ARG0 (a / c))",
)

INSERTS = (
    "(", ")", "/", '"', "\\", "\\\n", "\n", "\t", "\r", " ", ":ARG0", "x",
    ' "s p"', " (q / r)", "#",
)


def _base_texts(rng: random.Random):
    while True:
        if rng.random() < 0.25:
            yield rng.choice(HAND_MADE)
        else:
            graph = synth.random_graph(
                rng, 1, 20, max_reentrancies=rng.randint(0, 3), attribute_prob=0.3,
            )
            yield graph_to_penman(graph)


def _layout(text: str, rng: random.Random) -> str:
    """Re-space the text outside quotes with newlines, tabs and \\r."""
    spacing = rng.choice((None, "\n", "\t", "\r\n", "mixed"))
    if spacing is None:
        return text
    pieces = []
    quoted = False
    for index, char in enumerate(text):
        if char == '"' and text[index - 1 : index] != "\\":
            quoted = not quoted
        if char == " " and not quoted and rng.random() < 0.4:
            if spacing == "mixed":
                char = rng.choice(("\n    ", "\t", " \r\n", "  "))
            else:
                char = spacing + "  " * rng.randint(0, 2)
        pieces.append(char)
    return "".join(pieces)


def _metadata(rng: random.Random, index: int) -> str:
    lines = []
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        lines.append(rng.choice((
            f"# ::id doc-{index}",
            "# ::snt The boy wants to go .",
            "  # ::tok a\tb c",
            "# a plain comment",
            "",
        )))
    return "".join(line + "\n" for line in lines)


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        kind = rng.randrange(6)
        at = rng.randint(0, len(text))
        if kind == 0 and text:
            text = text[:at] + text[at + rng.randint(1, 3):]
        elif kind == 1:
            text = text[:at] + rng.choice(INSERTS) + text[at:]
        elif kind == 2 and text:
            stretch = text[at : at + rng.randint(1, 8)]
            text = text[:at] + stretch + text[at:]
        elif kind == 3:
            text = text[: rng.randint(0, len(text))]
        elif kind == 4:
            text += rng.choice((" (z / y)", " foo", ")", "\n(z / y)", " :ARG0 z"))
        else:
            text += "\\"
    return text


def _documents() -> list[str]:
    rng = random.Random(FIXTURE_SEED)
    bases = _base_texts(rng)
    texts = list(EDGE_CASES)
    for index in range(DOCUMENTS):
        body = _mutate(_layout(next(bases), rng), rng)
        texts.append(_metadata(rng, index) + body)
    return texts


def _digest(document, text: str) -> str:
    graph = document.graph
    payload = json.dumps([
        list(document.metadata.items()), list(graph.nodes.items()),
        graph.edges, graph.attributes, graph.root, (0, len(text.encode("utf-8"))),
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _parsed(text: str):
    try:
        return _digest(parse_penman(text), text)
    except PenmanSyntaxError as error:
        return ["syntax", str(error), error.line, error.column]
    except InvalidGraphError as error:
        return ["invalid", str(error)]


def _results() -> list:
    return [[text, _parsed(text)] for text in _documents()]


@functools.cache
def _golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_parse_results_match_golden_fixture():
    mismatches = [
        (text, _parsed(text), expected)
        for text, expected in _golden()
        if _parsed(text) != expected
    ]
    assert not mismatches, mismatches[:3]


def test_fixture_is_the_seeded_fuzz():
    assert [text for text, _ in _golden()] == _documents()


def test_fixture_covers_every_kind_of_outcome():
    outcomes = [result for _, result in _golden()]
    messages = " ".join(r[1] for r in outcomes if isinstance(r, list))
    assert sum(isinstance(r, str) for r in outcomes) > 100
    for fragment in (
        "unterminated string literal", "unbalanced '('", "unbalanced ')'",
        "unexpected '/'", "unexpected content after the graph",
        "expected '(' to start a graph", "expected a variable after '('",
        "missing concept after '/'", "has no target", "duplicate variable",
        "relation outside of a node", "unexpected token", "expected '/' after",
        "expected a relation before a nested node", "cycle", "appears 2 times",
    ):
        assert fragment in messages, fragment
    # errors past the first line, and after an escaped newline in a string
    assert any(isinstance(r, list) and r[0] == "syntax" and r[2] > 3 for r in outcomes)
    assert any("\\\n" in text and isinstance(r, list) and r[0] == "syntax"
               for text, r in _golden())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_penman_parser_equivalence.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_results(), indent=0) + "\n", encoding="utf-8")
