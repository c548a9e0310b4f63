"""Extended symbol vocabulary for linearized graphs.

The table holds a caller-supplied base vocabulary plus the four segment
markers, the mask token, a contiguous block of pointer tokens and every
relation and concept symbol observed in a corpus.  Ids are assigned by
sorted insertion so rebuilding from the same inputs yields the same
table.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from . import tokens as tk
from ._files import lines, write_all
from .penman import PenmanDocument

_FRAME_RE = re.compile(r".+-\d{2,}$")


class UnknownTokenError(ValueError):
    def __init__(self, toks: list[str]):
        self.tokens = list(toks)
        super().__init__(f"unknown tokens: {sorted(set(toks))}")


class PointerCapacityError(ValueError):
    def __init__(self, token: str, max_pointers: int):
        super().__init__(
            f"pointer {token} exceeds the vocabulary's capacity of "
            f"{max_pointers} pointer tokens"
        )


@dataclass(frozen=True)
class SymbolInventory:
    """Relation and concept symbols observed in a corpus, with counts."""

    relations: Counter
    concepts: Counter


def collect_symbols(documents: Iterable[PenmanDocument]) -> SymbolInventory:
    """Deduplicated relation and concept labels with occurrence counts."""
    relations: Counter = Counter()
    concepts: Counter = Counter()
    for document in documents:
        graph = document.graph
        for _, rel, _ in graph.edges:
            relations[rel] += 1
        for _, rel, _ in graph.attributes:
            relations[rel] += 1
        for concept in graph.nodes.values():
            concepts[concept] += 1
    return SymbolInventory(relations=relations, concepts=concepts)


@dataclass(frozen=True)
class Vocabulary:
    """Immutable token table; ids are dense and the inverse is exact."""

    id_of: dict[str, int]
    token_of: tuple[str, ...]
    partitions: dict[str, str]
    max_pointers: int

    def __len__(self) -> int:
        return len(self.token_of)


def build_vocabulary(
    base: list[str], inventory: SymbolInventory | None = None, max_pointers: int = 512
) -> Vocabulary:
    """Base tokens, markers, ``[mask]``, pointers, then corpus symbols.

    Base tokens keep their given order; inventory symbols are inserted
    sorted (relations before concepts) so ids are stable across runs.
    A base token that looks like a pointer would break the contiguous
    pointer block and is rejected.
    """
    if not base:
        raise ValueError("base vocabulary must not be empty")
    if max_pointers < 1:
        raise ValueError("max_pointers must be at least 1")

    id_of: dict[str, int] = {}
    partitions: dict[str, str] = {}

    def add(token: str, label: str) -> None:
        if token not in id_of:
            id_of[token] = len(id_of)
            partitions[token] = label

    for token in base:
        if tk.is_pointer(token):
            raise ValueError(f"base token {token!r} collides with pointer tokens")
        add(token, "base")
    for marker in tk.MARKERS:
        add(marker, "marker")
    add(tk.MASK, "mask")
    for k in range(max_pointers):
        add(tk.pointer(k), "pointer")
    if inventory is not None:
        for rel in sorted(inventory.relations):
            add(rel, "relation")
        for concept in sorted(inventory.concepts):
            add(concept, "frame" if _FRAME_RE.match(concept) else "base")

    return Vocabulary(
        id_of=id_of,
        token_of=tuple(id_of),  # ids count up in insertion order
        partitions=partitions,
        max_pointers=max_pointers,
    )


def encode(toks: list[str], vocabulary: Vocabulary) -> list[int]:
    ids: list[int] = []
    unknown: list[str] = []
    for token in toks:
        index = vocabulary.id_of.get(token)
        if index is None:
            pointer = tk.pointer_index(token)
            if pointer is not None and pointer >= vocabulary.max_pointers:
                raise PointerCapacityError(token, vocabulary.max_pointers)
            unknown.append(token)
        else:
            ids.append(index)
    if unknown:
        raise UnknownTokenError(unknown)
    return ids


def decode(ids: list[int], vocabulary: Vocabulary) -> list[str]:
    toks: list[str] = []
    for index in ids:
        if not 0 <= index < len(vocabulary.token_of):
            raise ValueError(f"id {index} outside the vocabulary")
        toks.append(vocabulary.token_of[index])
    return toks


def save_vocabulary(vocabulary: Vocabulary, path) -> None:
    r"""One token per line (line number = id) plus a JSON sidecar with the
    partition labels, both or neither, as ``amrforge vocab -o`` writes them
    (a ``path`` of ``-`` prints the tokens alone to stdout).

    Only ``\n`` ends a line, untranslated: universal newlines would split a
    quoted concept at a CR, and ``str.splitlines`` at a form feed or U+2028.
    """
    path = str(path)
    outputs = [(path, vocabulary.token_of)]
    if path != "-":
        sidecar = {"max_pointers": vocabulary.max_pointers,
                   "partitions": vocabulary.partitions}
        text = json.dumps(sidecar, ensure_ascii=False, indent=0, sort_keys=True)
        outputs.append((path + ".partitions.json", [text]))
    write_all(outputs)


def load_vocabulary(path) -> Vocabulary:
    """What :func:`save_vocabulary` wrote; tokens are read by the line rule."""
    with open(path, "rb") as handle:
        token_of = tuple(line.removesuffix("\n") for line in lines(handle))
    sidecar = json.loads(
        Path(str(path) + ".partitions.json").read_text(encoding="utf-8")
    )
    return Vocabulary(
        id_of={token: i for i, token in enumerate(token_of)},
        token_of=token_of,
        partitions=dict(sidecar["partitions"]),
        max_pointers=int(sidecar["max_pointers"]),
    )
