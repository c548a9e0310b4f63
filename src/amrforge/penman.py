"""Reading and writing AMR graphs in PENMAN notation.

A corpus file is UTF-8 text in which each document is a run of optional
``# ::key value`` metadata lines followed by one parenthesized PENMAN
expression; documents are separated by blank lines.  This is the
toolkit's canonical on-disk graph format.

The writer does not walk the graph itself: it renders the depth-first
token walk of :func:`~amrforge.linearize.linearize_with_layout`, so
PENMAN text and pointer-token sequences follow one traversal policy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, zip_longest

from ._files import lines
from .amr import AmrGraph, Diagnostic, InvalidGraphError, validate
from .linearize import linearize_with_layout
from .tokens import EMPTY_CONCEPT, is_relation, name_prefix


class PenmanSyntaxError(ValueError):
    """Malformed PENMAN text, positioned at the offending line/column."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class CorpusError(ValueError):
    """A malformed document encountered while reading a corpus strictly."""

    def __init__(self, index: int, cause: Exception):
        self.index = index
        self.cause = cause
        super().__init__(f"document {index}: {cause}")


@dataclass(frozen=True)
class PenmanDocument:
    """One corpus entry: metadata lines plus a parsed graph.

    ``diagnostics`` is non-empty only for documents accepted in lenient
    mode despite validation or syntax problems.
    """

    metadata: dict[str, str]
    graph: AmrGraph
    diagnostics: tuple[Diagnostic, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "metadata", dict(self.metadata))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))


def empty_graph() -> AmrGraph:
    """The documented fallback graph used for unrecoverable inputs."""
    return AmrGraph(nodes={"z0": EMPTY_CONCEPT}, root="z0")


# A token is a string literal (a backslash escapes any next character, a
# newline included), a lone quote that opens a string without an end, one of
# ( ) /, or a run of other characters; space, tab, CR and LF separate tokens.
# One regex split finds the literals, and string builtins the tokens between.
# A literal outside the quoted symbol rule of tokens, like "a\"b", fails validation.
_LITERAL_RE = re.compile(r'("(?:\\[\s\S]|[^"\\\n])*"|")')
_DELIMITERS = ("(", ")", "/")
_NOT_ATOM = '()/"'  # first characters of the tokens that are not atoms
_PAST_END = (-1, "(")  # what the walk takes past the last token: a delimiter


def _tokens(text: str) -> list[str]:
    pieces = _LITERAL_RE.split(text) if '"' in text else [text]
    tokens: list[str] = []
    for piece, literal in zip_longest(pieces[::2], pieces[1::2]):
        piece = piece.replace("\t", " ").replace("\r", " ").replace("\n", " ")
        piece = piece.replace("(", " ( ").replace(")", " ) ").replace("/", " / ")
        tokens += piece.split(" ")
        tokens.append(literal)
    return list(filter(None, tokens))  # no empty string, and no literal past the last


def _line_column(text: str, tokens: list[str], index: int, line: int) -> tuple[int, int]:
    """Line and column of ``tokens[index]``, ``text``'s tokens from line
    ``line`` on, found by ``str.find`` as only separators lie between them.
    An escaped newline in a literal counts as a column, not a line."""
    line_start = end = 0
    for token in tokens[: index + 1]:
        start = text.find(token, end)
        if newlines := text.count("\n", end, start):
            line += newlines
            line_start = text.rindex("\n", end, start) + 1
        end = start + len(token)
    return line, start - line_start + 1


def _split_metadata(text: str) -> tuple[dict[str, str], str, int]:
    """Return (metadata, graph text, 1-based line number of the graph text)."""
    metadata: dict[str, str] = {}
    lines = text.split("\n")
    body_start = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("# ::"):
            payload = line.lstrip()[4:].removesuffix("\r")  # of a CRLF line
            key, _, value = payload.partition(" ")
            metadata[key] = value
            body_start = i + 1
        elif stripped.startswith("#"):
            body_start = i + 1  # plain comments are skipped, not preserved
        elif stripped == "" and body_start == i:
            body_start = i + 1
        else:
            break
    return metadata, "\n".join(lines[body_start:]), body_start + 1


def parse_penman(text: str, strict: bool = True) -> PenmanDocument:
    """Parse metadata lines plus one PENMAN expression.

    Variables become node ids.  ``:rel (v / concept ...)`` adds an edge to
    a new node.  A bare target is an edge exactly when it names a variable
    defined anywhere in the expression, before or after it (``:rel v`` is
    a reentrant edge); any other bare target is an attribute constant
    (quoted constants keep their quotes).

    In strict mode a graph failing validation (a cycle introduced through
    a variable reference, a duplicate triple) raises
    :class:`~amrforge.amr.InvalidGraphError`; in lenient mode the document
    is returned carrying the diagnostics.

    A graph whose every reference names a node already closed by its
    ``)`` is valid but for duplicates and symbols, so validation skips
    the structural walk for it: each node opens under its parent, so the
    root reaches every node, and each edge runs to a node that closed
    first, so closing order falls along every edge and there is no cycle.
    A reference to an open node (a cycle) or to a later one proves nothing.
    """
    metadata, body, body_line = _split_metadata(text)
    if not body:  # every line is metadata, a comment or blank, so no token
        raise PenmanSyntaxError("expected '(' to start a graph",
                                text.count("\n") + 1, len(text) - text.rfind("\n"))
    graph = _parse_expression(body, body_line)
    diagnostics = validate(graph)
    if diagnostics and strict:
        raise InvalidGraphError(diagnostics)
    return PenmanDocument(metadata=metadata, graph=graph, diagnostics=diagnostics)


def _parse_expression(text: str, first_line: int) -> AmrGraph:
    """The graph of one PENMAN expression starting at line ``first_line``.

    A bare target is an edge exactly when it names a variable defined
    anywhere in the expression, and a constant otherwise: the one walk
    keeps every ``(source, relation, target)`` in text order to decide.
    """
    tokens = _tokens(text)

    def fail(message: str, index: int):
        raise PenmanSyntaxError(message, *_line_column(text, tokens, index, first_line))

    if '"' in tokens:
        fail("unterminated string literal", tokens.index('"'))

    nodes: dict[str, str] = {}
    triples: list[tuple[str, str, str]] = []
    stack: list[str] = []
    closed, unproven = set(), set()  # nodes past their ')', other bare targets
    pending: str | None = None  # the relation awaiting a target, the last token
    walk = enumerate(tokens)
    for pos, token in walk:
        if token == "(":
            if stack and pending is None:
                fail("expected a relation before a nested node", pos)
            var = next(walk, _PAST_END)[1]
            if var[0] in _NOT_ATOM:
                fail("expected a variable after '('", pos)
            if next(walk, _PAST_END)[1] != "/":
                fail(f"expected '/' after variable {var!r}", pos + 1)
            if (concept := next(walk, _PAST_END)[1]) in _DELIMITERS:
                fail("missing concept after '/'", pos + 2)
            if var in nodes:
                fail(f"duplicate variable definition {var!r}", pos + 1)
            nodes[var] = concept
            if stack:
                triples.append((stack[-1], pending, var))
                pending = None
            stack.append(var)
        elif token == ")":
            if pending is not None:
                fail(f"relation {pending!r} has no target", pos - 1)
            if not stack:
                fail("unbalanced ')'", pos)
            closed.add(stack.pop())
            if not stack:
                if pos + 1 < len(tokens):
                    fail("unexpected content after the graph", pos + 1)
                break
        elif token == "/":
            fail("unexpected '/'", pos)
        elif pending is None:
            if not is_relation(token):
                fail(f"unexpected token {token!r}", pos)
            if not stack:
                fail("relation outside of a node", pos)
            pending = token
        elif is_relation(token):
            fail(f"relation {pending!r} has no target", pos - 1)
        else:  # an atom or string target: edge or constant is decided after the walk
            triples.append((stack[-1], pending, token))
            pending = None
            if token not in closed:  # an open or a later node, or a constant
                unproven.add(token)

    if stack or not nodes:
        fail("unbalanced '(': expression ends before all nodes are closed",
             len(tokens) - 1)

    graph = AmrGraph(
        nodes=nodes,
        edges=tuple(t for t in triples if t[2] in nodes),
        attributes=tuple(t for t in triples if t[2] not in nodes),
        root=next(iter(nodes)),
    )
    if nodes.keys().isdisjoint(unproven):  # see parse_penman
        object.__setattr__(graph, "_nested", True)
    return graph


def serialize_penman(document: PenmanDocument) -> str:
    """Render metadata lines and the graph as PENMAN text.

    The graph is written as :func:`graph_to_penman` writes it.  The result
    re-parses to an isomorphic graph, and metadata values round-trip byte
    for byte.
    """
    lines = [
        f"# ::{key} {value}" if value else f"# ::{key}"
        for key, value in document.metadata.items()
    ]
    lines.append(graph_to_penman(document.graph))
    return "\n".join(lines)


def graph_to_penman(graph: AmrGraph) -> str:
    """One line of PENMAN, rendered from the graph's linearization.

    Each node is expanded at its first occurrence in stored edge order,
    with attributes before edges; later references are bare variables.
    Each ``( <Zk>`` becomes ``(node /``, each bare pointer becomes its
    node id, and every other token is copied as it is.
    """
    return _render(graph, renumber=False)


def _render(graph: AmrGraph, renumber: bool) -> str:
    """:func:`graph_to_penman`, or with ``renumber`` the same text with
    each node named after its pointer ``<Zk>``, which is what
    ``graph_to_penman(delinearize(linearize(graph)))`` writes."""
    parts, layout = linearize_with_layout(graph)
    prefix = renumber and name_prefix(parts)  # as delinearize names them
    # the k-th span is the one the pointer <Zk> opens
    name = {node: f"{prefix}{k}" if renumber else node
            for k, node in enumerate(layout.span)}
    for node, (start, _) in layout.span.items():
        parts[start] = f"({name[node]}"
        parts[start + 1] = "/"
    for position, node in layout.ref_positions:
        parts[position] = name[node]
    pieces = parts[:1]
    for part in parts[1:]:
        if part != ")":
            pieces.append(" ")
        pieces.append(part)
    return "".join(pieces)


def read_corpus(stream, strict: bool = True):
    r"""Yield :class:`PenmanDocument` objects from a corpus lazily.

    ``stream`` is bytes, a string, a binary or text stream, or an iterable
    of lines, read by the one line rule of the command line: a line ends
    at ``"\n"`` only, input is UTF-8, and a leading byte-order mark is
    skipped.  A text stream comes split by the newline mode it was opened
    in, where by default a lone ``"\r"`` (which a quoted constant may
    hold) ends a line: open files ``"rb"`` or with ``newline="\n"``.
    The stream is not closed here.

    Documents are separated by one or more blank lines.  A block of plain
    ``#`` comment lines, such as the header of an LDC release file, is not
    a document.  In strict mode the first malformed document aborts with
    its index; in lenient mode a document with a syntax error is replaced
    by the fallback graph and a document with validation problems is kept,
    both carrying diagnostics.
    """
    index = 0
    block: list[str] = []
    for line in chain(lines(stream), [""]):  # a blank line ends the last block
        if line.strip():
            block.append(line)
            continue
        # a block of plain comments, like an LDC file's header, is no document
        if any(s[0] != "#" or s.startswith("# ::") for s in map(str.lstrip, block)):
            yield _parse_block(block, index, strict)
            index += 1
        block = []


def _parse_block(block: list[str], index: int, strict: bool) -> PenmanDocument:
    text = "".join(block)
    try:
        return parse_penman(text, strict=strict)
    except PenmanSyntaxError as error:
        if strict:
            raise CorpusError(index, error) from error
        metadata, _, _ = _split_metadata(text)
        return PenmanDocument(
            metadata=metadata,
            graph=empty_graph(),
            diagnostics=(Diagnostic("syntax", str(error)),),
        )
    except InvalidGraphError as error:
        raise CorpusError(index, error) from error
