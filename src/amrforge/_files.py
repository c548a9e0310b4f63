r"""One line rule for every input, and all-or-nothing writes.

A line ends at ``"\n"`` only: a ``"\r"`` before it stays in the line, as
whitespace, and a lone ``"\r"``, a form feed, U+0085 or U+2028 ends no
line.  Input is UTF-8, less one leading byte-order mark.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from collections.abc import Iterable, Iterator


def lines(source) -> Iterator[str]:
    r"""The lines of bytes, a string, a binary or text stream, or any
    iterable of lines, each with its ``"\n"``, read as they are taken.

    Bytes are decoded a line at a time, so an undecodable byte fails when
    its line is reached.  A text stream comes split by its newline mode,
    whose default also ends a line at a lone ``"\r"``.  No stream is closed.
    """
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    elif isinstance(source, str):
        source = io.StringIO(source)  # splits at "\n" only
    items = iter(source)
    first = next(items, b"")
    if isinstance(first, bytes):
        first = first.decode("utf-8")
        items = map(bytes.decode, items)  # UTF-8, strict
    first = first.removeprefix("\ufeff")  # a byte-order mark
    if first:  # not when the source is empty or holds only the mark
        yield first
    # a loop, not yield from: closing this generator early would close
    # the stream it delegates to
    for line in items:
        yield line


def write(path: str, rows: Iterable[str]) -> None:
    write_all([(path, rows)])


def write_all(outputs: Iterable[tuple[str, Iterable[str]]]) -> None:
    r"""Print each ``(path, rows)`` output, a line per row, to stdout
    (``-``) or to a file.

    On stdout an error leaves the lines printed before it.  A regular file
    is written beside its path and moved into place after the last line of
    every output, so an error leaves each one absent or unchanged.
    Anything else at a path, such as a FIFO or ``/dev/null``, is written in
    place.  A file's lines end in an untranslated ``"\n"``.
    """
    staged: list[tuple[str, str]] = []  # (temporary, real path)
    try:
        for path, rows in outputs:
            if path == "-":
                _print_all(rows, sys.stdout)
                continue
            real = os.path.realpath(path)  # a symlinked output keeps its link
            if os.path.exists(real) and not os.path.isfile(real):
                with open(real, "w", encoding="utf-8", newline="\n") as out:
                    _print_all(rows, out)
                continue
            temporary = f"{real}.{os.getpid()}.tmp"
            # "x" gives a new file the umask's mode, and opens no old one
            try:
                out = open(temporary, "x", encoding="utf-8", newline="\n")
            except FileNotFoundError as error:
                error.filename = path  # a missing directory: name the output
                raise
            staged.append((temporary, real))
            with out:
                if os.path.exists(real):
                    shutil.copymode(real, temporary)
                _print_all(rows, out)
        for temporary, real in staged:
            os.replace(temporary, real)
    except BaseException:
        for temporary, _ in staged:
            with contextlib.suppress(FileNotFoundError):  # already moved
                os.remove(temporary)
        raise


def _print_all(rows: Iterable[str], out) -> None:
    for row in rows:
        print(row, file=out)
