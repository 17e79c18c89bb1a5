"""Shared XML plumbing: escaping and gzip detection.

Output uses UTF-8, the five standard character escapes, and character
references for the whitespace a parser would otherwise normalize (tab,
newline and carriage return in attributes, carriage return in text), so
that serialized bytes are a pure function of the value being written and
read back to that value.  Characters XML 1.0 forbids cannot be written.
"""

from __future__ import annotations

import gzip
import io
import re
from typing import BinaryIO

from .errors import FormatError

GZIP_MAGIC = b"\x1f\x8b"

# Characters XML 1.0 allows nowhere, not even as character references.
_FORBIDDEN_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"})
_ATTR_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
     "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}
)


# The writers' hot path: a printable value holds no control character, no
# forbidden one and no line break, so only markup characters can need work.
# Values that fail the test (also harmless ones such as a no-break space)
# take the slow path, which is exact.  In the snapshot writer this costs
# less than one character-class search per value.
def escape_text(value: str) -> str:
    """Escape character data."""
    if value.isprintable() and "&" not in value and "<" not in value and ">" not in value:
        return value
    return _escape(value, _TEXT_ESCAPES)


def escape_attr(value: str) -> str:
    """Escape an attribute value (always double-quoted by our writers)."""
    if (
        value.isprintable()
        and "&" not in value and "<" not in value and ">" not in value and '"' not in value
    ):
        return value
    return _escape(value, _ATTR_ESCAPES)


def _escape(value: str, table: dict[int, str]) -> str:
    bad = _FORBIDDEN_CHAR.search(value)
    if bad is not None:
        raise FormatError(
            f"cannot write {value!r}: XML 1.0 forbids U+{ord(bad.group()):04X}"
        )
    return value.translate(table)


def open_source(source: bytes | BinaryIO) -> BinaryIO:
    """Return a binary stream over ``source``, decompressing gzip content.

    Accepts raw bytes or an already-open binary stream; compression is
    detected from the magic bytes, never from a file name.
    """
    if isinstance(source, bytes):
        stream: BinaryIO = io.BytesIO(source)
    else:
        stream = source
    head = stream.read(2)
    seekable = getattr(stream, "seekable", None)
    if callable(seekable) and seekable():
        stream.seek(-len(head), io.SEEK_CUR)
        rewound = stream
    else:
        rewound = _Prepended(head, stream)  # type: ignore[assignment]
    if head == GZIP_MAGIC:
        return gzip.GzipFile(fileobj=rewound, mode="rb")  # type: ignore[return-value]
    return rewound


class _Prepended(io.RawIOBase):
    """Binary stream with a sniffed prefix pushed back in front."""

    def __init__(self, head: bytes, rest: BinaryIO):
        self._head = head
        self._rest = rest

    def readable(self) -> bool:
        return True

    def read(self, size: int = -1) -> bytes:
        if self._head:
            if size < 0 or size >= len(self._head):
                out, self._head = self._head, b""
                tail = self._rest.read(size - len(out) if size > 0 else size)
                return out + tail
            out, self._head = self._head[:size], self._head[size:]
            return out
        return self._rest.read(size)
