r"""Shared token constants, and the one symbol grammar of every reader
and writer (README "Formats" spells it out).

A plain symbol holds no whitespace and none of ``( ) / "``.  A quoted
symbol is ``"``, any characters but a quote or a newline, and ``"``; a
backslash escapes the next character, which may not be the closing quote
or a newline, so ``"a\\"`` is usable and ``"a\"`` is not.  The text form
of a token sequence is the space-joined sequence; it reads back split at
whitespace, except that a quoted symbol that starts a token and ends at
whitespace, such as ``"New York"``, is one token.  So the tokens of a
valid graph and of its corruptions read back from their text form, as
``test_every_valid_graph_has_a_text_and_a_penman_form`` checks.
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
# a sense suffix, as in want-01: a hyphen and two or more digits at the end
_SENSE_RE = re.compile(r"-\d{2,}$")
# truthy iff a concept is a frame: a sense suffix after a non-empty stem
is_frame = re.compile(f".+{_SENSE_RE.pattern}").match
# named like a node id of delinearize: z's, and a number without leading zeros
_NAME_RE = re.compile(r"^(z+)(?:0|[1-9][0-9]*)$", re.MULTILINE)

_TEXT_TOKEN_RE = re.compile(rf"{_QUOTED}(?!\S)|\S+")
# a token that may be a quoted symbol with whitespace, which str.split
# would cut; starting on the quote lets a search skip to quotes, and the
# lookbehind then checks that the quote starts a token
_SPACED_RE = re.compile(r'"(?<!\S")[^"\s]*\s[^"\n]*"(?!\S)')


def pointer(index: int) -> str:
    return f"<Z{index}>"


def pointer_digits(token: str) -> str | None:
    """``k`` of a pointer token ``<Zk>``, in ASCII digits without leading
    zeros (``"0"`` for zero), else None.

    ``k`` is one or more decimal digits of any script: ``str.isdecimal``
    accepts exactly the Unicode Nd digits that the regex class ``\\d``
    matches, so this agrees with every pattern that spells a pointer.  No
    ``int()`` of ``k`` is taken: it refuses over 4,300 digits by default.
    """
    digits = token[2:-1]
    if not (token.startswith("<Z") and token.endswith(">") and digits.isdecimal()):
        return None
    digits = digits if digits.isascii() else "".join(map(str, map(int, digits)))
    return digits.lstrip("0") or "0"


def is_pointer(token: str) -> bool:
    return pointer_digits(token) is not None


def strip_sense(concept: str) -> str:
    return _SENSE_RE.sub("", concept)


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
    """The space-joined text form, which :func:`from_text` reads back for
    the tokens of a valid graph and of its corruptions (module docstring)."""
    return " ".join(tokens)


def from_text(text: str) -> list[str]:
    if _SPACED_RE.search(text) is None:
        return text.split()
    return _TEXT_TOKEN_RE.findall(text)
