r"""Shared token constants, and the one symbol grammar of every reader
and writer (README "Formats" spells it out).

A plain symbol holds no whitespace and none of ``( ) / "``.  A quoted
symbol is ``"``, any characters but a quote or a newline, and ``"``; a
backslash escapes the next character, which may not be the closing quote
or a newline, so ``"a\\"`` is usable and ``"a\"`` is not.  The text form
of a token sequence is the space-joined sequence; it reads back split at
whitespace, except that a quoted symbol that starts a token and ends at
whitespace, such as ``"New York"``, is one token.
"""

import re

MASK = "[mask]"

TEXT_START = "<s>"
TEXT_END = "</s>"
GRAPH_START = "<g>"
GRAPH_END = "</g>"
MARKERS = (TEXT_START, TEXT_END, GRAPH_START, GRAPH_END)

OPEN = "("
CLOSE = ")"

# the concept of the fallback graph that stands in for unusable input
EMPTY_CONCEPT = "amr-empty"

_PLAIN = r'[^\s()/"]+'
# quotes around escape pairs and characters but a quote, backslash or newline
_QUOTED = r'"(?:\\[^"\n]|[^"\\\n])*"'
# each usable_* returns a match, which is truthy, iff all of it is such a symbol
usable_node_id = re.compile(rf"(?!:){_PLAIN}").fullmatch
# a concept or constant: quoted, or plain without a leading colon and not a pointer
usable_value = re.compile(rf"{_QUOTED}|(?!:|<Z\d+>\Z){_PLAIN}").fullmatch
usable_relation = re.compile(rf":{_PLAIN}").fullmatch
# named like a node id of delinearize: z's, and a number without leading zeros
_NAME_RE = re.compile(r"^(z+)(?:0|[1-9][0-9]*)$", re.MULTILINE)

_TEXT_TOKEN_RE = re.compile(rf"{_QUOTED}(?!\S)|\S+")
# a token that may be a quoted symbol with whitespace, which str.split
# would cut; starting on the quote lets a search skip to quotes, and the
# lookbehind then checks that the quote starts a token
_SPACED_RE = re.compile(r'"(?<!\S")[^"\s]*\s[^"\n]*"(?!\S)')


def pointer(index: int) -> str:
    return f"<Z{index}>"


def pointer_index(token: str) -> int | None:
    """``k`` for a pointer token ``<Zk>``, else None.

    ``k`` is one or more decimal digits of any script: ``str.isdecimal``
    accepts exactly the Unicode Nd digits that the regex class ``\\d``
    matches, so this agrees with every pattern that spells a pointer.
    """
    digits = token[2:-1]
    if token.startswith("<Z") and token.endswith(">") and digits.isdecimal():
        return int(digits)
    return None


def is_pointer(token: str) -> bool:
    return pointer_index(token) is not None


def is_relation(token: str) -> bool:
    return len(token) > 1 and token.startswith(":")


def name_prefix(symbols) -> str:
    """The prefix of the node ids ``z0, z1, ...`` that delinearize gives:
    the fewest ``z`` that no symbol is, followed by a number.  So a
    constant ``z1`` makes the node ids ``zz0, zz1, ...``, since PENMAN
    would read a constant that names a node as an edge to it.  (A symbol
    with a newline counts as its lines: one search reads them all.)"""
    text = "\n" + "\n".join(symbols)
    taken = {len(z) for z in _NAME_RE.findall(text)} if "\nz" in text else set()
    return "z" * min(set(range(1, len(taken) + 2)) - taken)


def to_text(tokens) -> str:
    """The space-joined text form.

    Raises ValueError naming the first token that :func:`from_text` would
    not give back: an empty token, one with whitespace outside a quoted
    symbol, or one that the text reads as part of a quoted symbol.
    """
    tokens = list(tokens)
    text = " ".join(tokens)
    read = from_text(text)
    if read != tokens:  # so some token differs, as read is no extension
        bad = next(t for i, t in enumerate(tokens) if i == len(read) or read[i] != t)
        raise ValueError(f"token {bad!r} has no text form: the space-joined "
                         "text does not read back to it")
    return text


def from_text(text: str) -> list[str]:
    if _SPACED_RE.search(text) is None:
        return text.split()
    return _TEXT_TOKEN_RE.findall(text)
