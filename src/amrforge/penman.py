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

import io
from dataclasses import dataclass, replace

from .amr import AmrGraph, Diagnostic, InvalidGraphError, validate
from .linearize import linearize_with_layout
from .tokens import EMPTY_CONCEPT

_ATOM_BREAK = set(' \t\r\n()/"')


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

    ``source_span`` holds the document's byte offsets in the input stream.
    ``diagnostics`` is non-empty only for documents accepted in lenient
    mode despite validation or syntax problems.
    """

    metadata: dict[str, str]
    graph: AmrGraph
    source_span: tuple[int, int] = (0, 0)
    diagnostics: tuple[Diagnostic, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "metadata", dict(self.metadata))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))


def empty_graph() -> AmrGraph:
    """The documented fallback graph used for unrecoverable inputs."""
    return AmrGraph(nodes={"z0": EMPTY_CONCEPT}, root="z0")


@dataclass(frozen=True)
class _Token:
    text: str
    kind: str  # "(", ")", "/", "atom", "string"
    line: int
    column: int


def _tokenize(text: str, first_line: int) -> list[_Token]:
    tokens: list[_Token] = []
    line = first_line
    column = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch in "()/":
            tokens.append(_Token(ch, ch, line, column))
            i += 1
            column += 1
            continue
        if ch == '"':
            start_line, start_col = line, column
            j = i + 1
            while j < n:
                if text[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if text[j] == '"':
                    break
                if text[j] == "\n":
                    break
                j += 1
            if j >= n or text[j] != '"':
                raise PenmanSyntaxError(
                    "unterminated string literal", start_line, start_col
                )
            literal = text[i : j + 1]
            tokens.append(_Token(literal, "string", start_line, start_col))
            column += j + 1 - i
            i = j + 1
            continue
        j = i
        while j < n and text[j] not in _ATOM_BREAK:
            j += 1
        tokens.append(_Token(text[i:j], "atom", line, column))
        column += j - i
        i = j
    return tokens


def _split_metadata(text: str) -> tuple[dict[str, str], str, int]:
    """Return (metadata, graph text, 1-based line number of the graph text)."""
    metadata: dict[str, str] = {}
    lines = text.split("\n")
    body_start = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("# ::"):
            payload = line.lstrip()[4:]
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
    a new node, ``:rel v`` for a variable defined anywhere in the
    expression adds a reentrant edge, and any other bare target is an
    attribute constant (quoted constants keep their quotes).

    In strict mode a graph failing validation (a cycle introduced through
    a variable reference, a duplicate triple) raises
    :class:`~amrforge.amr.InvalidGraphError`; in lenient mode the document
    is returned carrying the diagnostics.
    """
    metadata, body, body_line = _split_metadata(text)
    tokens = _tokenize(body, body_line)
    graph = _parse_expression(tokens)
    diagnostics = validate(graph)
    if diagnostics and strict:
        raise InvalidGraphError(diagnostics)
    return PenmanDocument(
        metadata=metadata,
        graph=graph,
        source_span=(0, len(text.encode("utf-8"))),
        diagnostics=tuple(diagnostics),
    )


def _parse_expression(tokens: list[_Token]) -> AmrGraph:
    if not tokens:
        raise PenmanSyntaxError("expected '(' to start a graph", 1, 1)

    # Pre-scan variable definitions so that references written before
    # their definition still resolve as reentrant edges.
    declared: set[str] = set()
    for i in range(len(tokens) - 2):
        if (
            tokens[i].kind == "("
            and tokens[i + 1].kind == "atom"
            and tokens[i + 2].kind == "/"
        ):
            declared.add(tokens[i + 1].text)

    nodes: dict[str, str] = {}
    edges: list[tuple[str, str, str]] = []
    attributes: list[tuple[str, str, str]] = []
    root: str | None = None

    stack: list[str] = []
    pending_rel: _Token | None = None
    pos = 0

    def fail(message: str, token: _Token):
        raise PenmanSyntaxError(message, token.line, token.column)

    while pos < len(tokens):
        token = tokens[pos]
        if token.kind == "(":
            if stack and pending_rel is None:
                fail("expected a relation before a nested node", token)
            if pos + 1 >= len(tokens) or tokens[pos + 1].kind != "atom":
                fail("expected a variable after '('", token)
            var_token = tokens[pos + 1]
            if pos + 2 >= len(tokens) or tokens[pos + 2].kind != "/":
                fail(f"expected '/' after variable {var_token.text!r}", var_token)
            if pos + 3 >= len(tokens) or tokens[pos + 3].kind not in ("atom", "string"):
                fail("missing concept after '/'", tokens[pos + 2])
            if var_token.text in nodes:
                fail(f"duplicate variable definition {var_token.text!r}", var_token)
            var = var_token.text
            nodes[var] = tokens[pos + 3].text
            if root is None:
                root = var
            if stack:
                edges.append((stack[-1], pending_rel.text, var))
                pending_rel = None
            stack.append(var)
            pos += 4
            continue
        if token.kind == ")":
            if pending_rel is not None:
                fail(f"relation {pending_rel.text!r} has no target", pending_rel)
            if not stack:
                fail("unbalanced ')'", token)
            stack.pop()
            pos += 1
            if not stack:
                if pos < len(tokens):
                    fail("unexpected content after the graph", tokens[pos])
                break
            continue
        if token.kind == "/":
            fail("unexpected '/'", token)
        if token.kind == "atom" and token.text.startswith(":") and len(token.text) > 1:
            if not stack:
                fail("relation outside of a node", token)
            if pending_rel is not None:
                fail(f"relation {pending_rel.text!r} has no target", pending_rel)
            pending_rel = token
            pos += 1
            continue
        # atom or string target
        if not stack or pending_rel is None:
            fail(f"unexpected token {token.text!r}", token)
        if token.kind == "atom" and token.text in declared:
            edges.append((stack[-1], pending_rel.text, token.text))
        else:
            attributes.append((stack[-1], pending_rel.text, token.text))
        pending_rel = None
        pos += 1

    if stack or root is None:
        last = tokens[-1]
        raise PenmanSyntaxError(
            "unbalanced '(': expression ends before all nodes are closed",
            last.line,
            last.column,
        )

    return AmrGraph(
        nodes=nodes, edges=tuple(edges), attributes=tuple(attributes), root=root
    )


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
    parts, layout = linearize_with_layout(graph)
    for node, position in layout.concept_pos.items():
        parts[position - 2] = f"({node}"
        parts[position - 1] = "/"
    for position, node in layout.ref_positions:
        parts[position] = node
    pieces = parts[:1]
    for part in parts[1:]:
        if part != ")":
            pieces.append(" ")
        pieces.append(part)
    return "".join(pieces)


def read_corpus(stream, strict: bool = True):
    """Yield :class:`PenmanDocument` objects from a corpus stream lazily.

    Documents are separated by one or more blank lines.  In strict mode
    the first malformed document aborts with its index; in lenient mode a
    document with a syntax error is replaced by the fallback graph and a
    document with validation problems is kept, both carrying diagnostics.
    """
    if isinstance(stream, (bytes, bytearray)):
        stream = io.StringIO(stream.decode("utf-8-sig"))
    elif isinstance(stream, str):
        stream = io.StringIO(stream)
    elif isinstance(stream, io.BufferedIOBase) or (
        hasattr(stream, "mode") and "b" in getattr(stream, "mode", "")
    ):
        stream = io.TextIOWrapper(stream, encoding="utf-8-sig")

    index = 0
    offset = 0
    block: list[str] = []
    block_start = 0
    for line in stream:
        line_bytes = len(line.encode("utf-8"))
        if line.strip() == "":
            if block:
                yield _parse_block(block, block_start, offset, index, strict)
                index += 1
                block = []
        else:
            if not block:
                block_start = offset
            block.append(line)
        offset += line_bytes
    if block:
        yield _parse_block(block, block_start, offset, index, strict)


def _parse_block(
    block: list[str], start: int, end: int, index: int, strict: bool
) -> PenmanDocument:
    text = "".join(block)
    try:
        document = parse_penman(text, strict=strict)
    except PenmanSyntaxError as error:
        if strict:
            raise CorpusError(index, error) from error
        metadata, _, _ = _split_metadata(text)
        return PenmanDocument(
            metadata=metadata,
            graph=empty_graph(),
            source_span=(start, end),
            diagnostics=(Diagnostic("syntax", str(error)),),
        )
    except InvalidGraphError as error:
        raise CorpusError(index, error) from error
    return replace(document, source_span=(start, end))
