"""Shared token constants and helpers.

A token sequence is a plain ``list[str]``.  The text form is the
space-joined sequence, so it can only hold tokens without whitespace:
:func:`to_text` rejects the others.  Quoted PENMAN constants with internal
spaces, such as ``"New York"``, are valid graphs and survive linearization
in memory, but have no text form.
"""

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
