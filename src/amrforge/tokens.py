"""Shared token constants and helpers.

A token sequence is a plain ``list[str]``.  The text form is the
space-joined sequence, so it can only hold tokens without whitespace:
:func:`to_text` rejects the others.  Quoted PENMAN constants with internal
spaces, such as ``"New York"``, are valid graphs and survive linearization
in memory, but have no text form.
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

_POINTER_RE = re.compile(r"<Z(\d+)>")


def pointer(index: int) -> str:
    return f"<Z{index}>"


def pointer_index(token: str) -> int | None:
    match = _POINTER_RE.fullmatch(token)
    return int(match.group(1)) if match else None


def is_pointer(token: str) -> bool:
    return pointer_index(token) is not None


def is_relation(token: str) -> bool:
    return len(token) > 1 and token.startswith(":")


def is_structural(token: str) -> bool:
    """True for tokens that carry sequence structure rather than content."""
    return token in (OPEN, CLOSE) or is_relation(token) or is_pointer(token)


def to_text(tokens) -> str:
    """The space-joined text form.

    Raises ValueError naming the first token that :func:`from_text` would
    not give back, that is, one that contains whitespace (or is empty).
    """
    tokens = list(tokens)
    text = " ".join(tokens)
    if text.split() != tokens:
        bad = next(token for token in tokens if token.split() != [token])
        raise ValueError(
            f"token {bad!r} has no text form: tokens must be non-empty and "
            "contain no whitespace"
        )
    return text


def from_text(text: str) -> list[str]:
    return text.split()
