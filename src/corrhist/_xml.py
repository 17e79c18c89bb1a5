"""Shared XML plumbing: escaping and the characters XML cannot carry.

Output uses UTF-8, the five standard character escapes, and character
references for the whitespace a parser would otherwise normalize (tab,
newline and carriage return in attributes, carriage return in text), so
that serialized bytes are a pure function of the value being written and
read back to that value.  Characters XML 1.0 forbids cannot be written.
"""

from __future__ import annotations

import re

from .errors import FormatError

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


def unwritable(value: str) -> str | None:
    """Why XML 1.0 cannot carry ``value``, or None if it can."""
    bad = _FORBIDDEN_CHAR.search(value)
    if bad is None:
        return None
    return f"cannot write {value!r}: XML 1.0 forbids U+{ord(bad.group()):04X}"


def _escape(value: str, table: dict[int, str]) -> str:
    problem = unwritable(value)
    if problem is not None:
        raise FormatError(problem)
    return value.translate(table)


def parse_int(value: str) -> int:
    """An integer attribute value: ASCII ``-?[0-9]+`` only.

    Bare ``int()`` also takes surrounding spaces, ``_`` separators and
    non-ASCII digits, none of which the writers produce or the canonical
    fast path accepts.  Raises ValueError, like ``int()``.
    """
    # The only ASCII characters ``isdigit`` accepts are 0-9.
    if value.isascii() and (
        value.isdigit() or value[:1] == "-" and value[1:].isdigit()
    ):
        return int(value)
    raise ValueError(f"not an integer: {value!r}")


def parse_position(value: str) -> int:
    """A signature's ``pos`` attribute: ``parse_int`` and not negative.
    Raises ValueError with the message both readers report."""
    try:
        pos = parse_int(value)
    except ValueError:
        raise ValueError(f"non-integer signature position {value!r}") from None
    if pos < 0:
        raise ValueError(f"negative signature position {pos}")
    return pos
