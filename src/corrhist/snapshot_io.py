"""Reading and writing snapshot files.

A snapshot file is a flat XML document: a ``snapshot`` root carrying the
observation date, document records, then profile records.  Writing is
deterministic, so the same snapshot value always yields byte-identical
output.  A series is written as a line delta (``write_history``): a record
that is the very object of the previous snapshot's record keeps its line,
and only the other records are rendered.

Each file is read into memory whole and decompressed in one call if it
starts with the gzip magic bytes.  Files in the exact form this module writes
take a line-oriented fast path, which proves and reads each record line with
one regular-expression match; everything else goes through expat.  Both
parsers feed one record builder, which alone enforces integrity, so they
accept and reject the same records with the same messages.  In a series,
the builder of one file carries over to the next, and a later file is read
as a delta of the one before (``_Reader``).  Both deltas compare the two
files' bytes in long equal stretches (``_equal_bytes``): a canonical file
pairs the lines that did not change, and of each stretch equal to records
of the previous file, gaps included, expat reads the first record with its
callbacks off and, unless the prolog declares an entity, never gets the
rest.  Only the records that changed are built and checked.

``load_history`` and ``parse_snapshot`` pause automatic cyclic garbage
collection while they read (``_collection_paused``).
"""

from __future__ import annotations

import gc
import gzip
import re
import sys
import zlib
from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, NamedTuple
from xml.parsers import expat

from ._cpus import _beside, _cpu_mask
from ._xml import escape_attr, escape_text, parse_int, parse_position
from .errors import FormatError, IntegrityError
from .model import (
    DocumentRecord, History, MentionKey, Profile, Role, Signature, Snapshot, _unpaired_venue,
    validate_date,
)

if TYPE_CHECKING:
    import threading

FORMAT_VERSION = "1"

GZIP_MAGIC = b"\x1f\x8b"

_FILENAME_RE = re.compile(r"snapshot-([0-9]{4}-[0-9]{2}-[0-9]{2})\.xml(?:\.gz)?")

_AUTHOR = Role.AUTHOR
_EDITOR = Role.EDITOR
# The values of a signature's ``role`` attribute.
_ROLES = {"author": _AUTHOR, "editor": _EDITOR}
# Every record class is a named tuple: ``_new_tuple(cls, fields)`` is
# ``cls(*fields)`` without the Python frame of the named tuple's ``__new__``.
_new_tuple = tuple.__new__


def parse_snapshot(
    source: bytes | str | Path | BinaryIO, *, source_name: str | None = None
) -> Snapshot:
    """Parse one snapshot from bytes, a path, or a binary stream.

    The result satisfies ``Snapshot.validate``, which runs the same record
    builder: integrity violations in the input (a mention claimed by two
    profiles, a dangling document key, a position past the end of the name
    list, an empty profile id, document key or venue key) raise
    IntegrityError naming the offending records and the file.  Malformed
    markup raises FormatError with the byte offset into the decompressed
    stream.
    """
    if source_name is None and isinstance(source, (str, Path)):
        source_name = str(source)
    with _collection_paused():
        return _Reader().read(source, source_name)


@contextmanager
def _collection_paused() -> Iterator[None]:
    """Pause automatic cyclic garbage collection, if it is on, while a read
    runs, and turn it back on however the read ends.

    A read allocates many records and no reference cycle, so each
    collection it would trigger walks every record loaded so far and frees
    nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _Reader:
    """Reads the files of one series, in order, one file at a time.

    The builder of the file read last carries over to the next file, which
    takes one of four paths:

    - a canonical file after a canonical file is a line delta: a walk over
      its bytes and the previous file's (``_changed_lines``) pairs
      byte-identical lines, only the lines it leaves unpaired are parsed and
      checked, and every other record is the previous snapshot's object; a
      file out of writer order reads the same, with more lines parsed;
    - any other canonical file is a full canonical pass;
    - a file expat reads after a file expat read, with the same prolog, is
      a record delta (``_expat_builder``): of each stretch equal to records
      of the previous file, gaps included, expat reads the first record
      with its callbacks off and skips the rest (see ``_runs``), and only
      the other records are built and checked;
    - any other file is a full expat pass.

    ``paths`` notes the path of each file read, with the first reason the
    canonical path declined it, if it did.  Whatever the path, a record
    equal to the previous snapshot's record under its key is that record's
    object, and no other record is shared: one that comes back after an
    absence is built anew.
    """

    def __init__(self) -> None:
        # The snapshot read last, and the builder of its file: the state the
        # next delta starts from.
        self.prev: Snapshot | None = None
        self.build: _Builder | None = None
        self.paths: list[tuple[str, str | None]] = []

    def read(self, source: bytes | str | Path | BinaryIO, source_name: str | None) -> Snapshot:
        if isinstance(source, (str, Path)):
            with open(source, "rb") as f:
                data = f.read()
        else:
            data = source if isinstance(source, bytes) else source.read()
        last, self.build = self.build, None
        if data[:2] == GZIP_MAGIC:
            try:
                data = gzip.decompress(data)
            except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
                raise FormatError(f"corrupt gzip stream: {exc}", -1, source_name) from None
        snapshot = self.canonical(data, source_name, last)
        if isinstance(snapshot, str):
            snapshot = self.expat(data, source_name, last, snapshot)
        self.prev = snapshot
        return snapshot

    def canonical(
        self, data: bytes, source_name: str | None, last: _Builder | None = None
    ) -> Snapshot | str:
        """Parse canonical serializer output; a str says why the file is not
        in that form.

        ``last`` is the builder of the file read before, if any.  A str is
        returned for markup reasons only: the first record line that starts
        unlike canonical ones, found before any record is built, else the
        first one not in canonical form.  Records go through the general
        parser's builder, so a snapshot, or an IntegrityError, is exactly
        what the general parser would have produced.
        """
        head = _CANON_HEAD.match(data)
        if head is None or data.find(b"\n", head.end()) < 0:
            return "header not canonical"
        if not data.endswith(_CANON_END):
            return "end not canonical"
        try:
            date = validate_date(head.group(1).decode("ascii"))
        except ValueError:
            return "header not canonical"
        body = head.end()
        if last is not None and last.data is not None:
            walked = _changed_lines(last.data, data, body)
            if isinstance(walked, str):
                return walked
            added, gone = walked
            records = list(_parse_lines(data[start:data.index(b"\n", start)] for start in added))
            if None in records:
                return _not_canonical(data, added[records.index(None)])
            count = len(last.documents) + len(last.profiles) - len(gone) + len(added)
            try:
                snapshot = last.delta(date, source_name, gone, records, count)
            except IntegrityError:
                pass  # the full pass below reports the first error in file order
            else:
                last.data = data
                self.took("line delta", last)
                return snapshot
        bad = _BAD_START.search(data, body - 1, len(data) - len(_CANON_END))
        if bad is not None:
            return _not_canonical(data, bad.end())
        lines = data.split(b"\n")[2:-2]
        build = _Builder(date, self.prev, source_name)
        if not build.add(_parse_lines(lines)):
            # Each line before the first one not in canonical form added one
            # record, or the pass would have raised.
            i = len(build.documents) + len(build.profiles)
            return _not_canonical(data, body + sum(map(len, lines[:i])) + i)
        build.data = data
        snapshot = build.snapshot()
        self.took("full canonical pass", build)
        return snapshot

    def expat(
        self, data: bytes, source_name: str | None, last: _Builder | None, reason: str
    ) -> Snapshot:
        """Read a file the canonical path declined, for ``reason``.

        This alone decides whether the file is a record delta of the file
        read before: it is if expat read that file, every record of it has
        a span, and ``data`` starts with its prolog (declaration, encoding,
        DOCTYPE: everything that changes what the same bytes mean) and its
        root tag's name, so that expat reads the root at the same offset.
        """
        if last is None or last.spans is None or not (
            len(last.spans.keys) == len(last.documents) + len(last.profiles)
            and data.startswith(last.spans.data[:last.spans.root])
            and data.startswith(b"<snapshot", last.spans.root)
        ):
            last = None
        try:
            build, snapshot = _expat_builder(data, self.prev, source_name, last)
        except (IntegrityError, FormatError):
            if last is None:
                raise
            # A delta checks records out of file order; a pass without reuse
            # reports the error a single parse would.
            build, snapshot = _expat_builder(data, self.prev, source_name)
        self.took("expat record delta" if build is last else "full expat pass", build, reason)
        return snapshot

    def took(self, path: str, build: _Builder, reason: str | None = None) -> None:
        self.build = build
        self.paths.append((path, reason))


class _Builder:
    """Collects one snapshot's records; the one place integrity is enforced.

    It rejects a duplicate document key or profile id, an empty profile id,
    document key or venue key, an empty profile, a blank surface, a mention
    claimed twice, a venue key bound to two names, and mentions of unknown
    documents or positions.
    ``Snapshot.validate`` feeds a value's records through a builder without
    ``prev`` or a file name, so these rules have no other copy.  A record
    equal to the previous snapshot's record under the same key is replaced
    by that object, and by no other, so a series shares storage for
    everything unchanged from one snapshot to the next.  ``prev`` must
    itself have come out of a builder.  ``snapshot`` records in ``changed``
    the ids of the profiles whose record differs from ``prev``'s.  A
    builder keeps the owner index, keyed by mention slot, and the name and
    document count of each venue key its documents use, which no snapshot
    holds, and ``delta`` turns it into the builder of the next file of its
    series.  The builder of a canonical file keeps its bytes, ``data``, for
    the walk of the next one, and no map of its lines: a record the walk
    finds gone is looked up by key.  That of an expat-read file keeps its
    ``spans``, from which ``_expat_builder`` reads the next one as a record
    delta.
    """

    def __init__(self, date: str, prev: Snapshot | None, source_name: str | None):
        self.date = date
        self.source_name = source_name
        self.prev_profiles = prev.profiles if prev is not None else {}
        self.prev_documents = prev.documents if prev is not None else {}
        self.profiles: dict[str, Profile] = {}
        self.documents: dict[str, DocumentRecord] = {}
        # The name each venue key is bound to, and how many documents use it.
        self.venues: dict[str, str] = {}
        self.venue_docs: dict[str, int] = {}
        self.owners: dict[MentionKey, str] = {}
        # Profiles carried over from ``prev`` were checked against its
        # documents; the others still need their references checked.
        self.fresh: list[Profile] = []
        self.changed: frozenset[str] = frozenset()
        # A canonical file's bytes.
        self.data: bytes | None = None
        # An expat-read file and where its records lie in it.
        self.spans: _Spans | None = None

    def error(self, message: str) -> IntegrityError:
        return IntegrityError(message + (f" ({self.source_name})" if self.source_name else ""))

    def document(self, record: DocumentRecord) -> DocumentRecord:
        key = record.document_key
        if not key:
            raise self.error("document key must be non-empty")
        if key in self.documents:
            raise self.error(f"duplicate document key {key!r}")
        venue_key = record.venue_key
        if venue_key is not None:
            if not venue_key:
                raise self.error(f"document {key}: venue key must be non-empty")
            venue_name = record.venue_name
            known = self.venues.setdefault(venue_key, venue_name)  # type: ignore[arg-type]
            if known != venue_name:
                raise self.error(
                    f"venue key {venue_key!r} bound to two names: "
                    f"{known!r} and {venue_name!r}"
                )
            self.venue_docs[venue_key] = self.venue_docs.get(venue_key, 0) + 1
        old = self.prev_documents.get(key)
        if old is not None and old == record:
            record = old
        self.documents[key] = record
        return record

    def profile(self, record: Profile, sigs: Iterable[Signature]) -> Profile:
        """Add ``record``; ``sigs`` are its mentions as read, so a mention
        listed twice is caught even though the set holds it once."""
        pid = record.profile_id
        if not pid:
            raise self.error("profile id must be non-empty")
        if pid in self.profiles:
            raise self.error(f"duplicate profile id {pid!r}")
        if not record.mentions:
            raise self.error(
                f"profile {pid} has no signatures; empty profiles are "
                f"represented by absence"
            )
        owners = self.owners
        for doc, pos, surface, role in sigs:
            if not surface or surface.isspace():
                raise self.error(f"profile {pid}: blank surface on {doc} pos {pos}")
            k = (doc, pos, role)
            other = owners.get(k)
            if other is not None:
                if other == pid:
                    raise self.error(f"profile {pid} lists mention {(doc, pos, role.value)} twice")
                raise self.error(
                    f"mention {(doc, pos, role.value)} interpreted by two "
                    f"profiles: {other} and {pid}"
                )
            owners[k] = pid
        old = self.prev_profiles.get(pid)
        if old is not None and old == record:
            record = old
        else:
            self.fresh.append(record)
        self.profiles[pid] = record
        return record

    def add(self, records: Iterable[_Parsed | None]) -> bool:
        """Add parsed records, in order; False at the first line not in
        canonical form."""
        add_profile, add_document = self.profile, self.document
        for record in records:
            if record is None:
                return False
            is_profile, parsed = record
            if is_profile:
                add_profile(*parsed)  # type: ignore[arg-type]
            else:
                add_document(parsed)  # type: ignore[arg-type]
        return True

    def delta(
        self,
        date: str,
        source_name: str | None,
        gone: list[tuple[bool, str]],
        records: Iterable[_Parsed],
        count: int,
    ) -> Snapshot:
        """Turn this builder into the builder of the next file of its
        series, which holds ``count`` records: this one's, less those that
        did not come back, ``gone`` as (is a profile, key), plus
        ``records``, in file order.

        The new record maps start as copies of the previous ones.  The gone
        records leave them, the owner index and the venue bindings, which
        change in place; then
        ``records`` are checked and added, each shared with the gone record
        under its key if equal to it, and with no other.  The maps
        are not in file order: writers sort, and nothing reads a snapshot's
        records in order.  A carried profile is rechecked only if a document
        vanished or lost names under it.  An IntegrityError leaves the
        builder unusable, and the errors of a delta need not be those of the
        file read alone: a full pass over the file then reports the error,
        in file order, as a fresh parse would.
        """
        self.date = date
        self.source_name = source_name
        self.prev_profiles = self.profiles
        self.prev_documents = self.documents
        self.profiles = profiles = dict(self.profiles)
        self.documents = documents = dict(self.documents)
        self.fresh = []
        venues, venue_docs = self.venues, self.venue_docs
        owners = self.owners
        replaced = []
        for is_profile, key in gone:
            if is_profile:
                for doc_key, pos, _surface, role in profiles.pop(key).mentions:
                    del owners[doc_key, pos, role]
                continue
            doc = documents.pop(key)
            replaced.append(doc)
            if doc.venue_key is not None:
                venue_docs[doc.venue_key] -= 1
                if not venue_docs[doc.venue_key]:
                    del venue_docs[doc.venue_key], venues[doc.venue_key]
        self.add(records)
        # A record listed twice leaves fewer records than were read.
        if len(documents) + len(profiles) != count:
            raise self.error("repeated record line or key")
        return self.snapshot(
            replaced, [key for is_profile, key in gone if is_profile and key not in profiles]
        )

    def snapshot(
        self,
        replaced: Iterable[DocumentRecord] | None = None,
        removed: Iterable[str] | None = None,
    ) -> Snapshot:
        """Note the changed profiles, check the fresh profiles' references
        and return the snapshot.

        ``replaced`` are the previous snapshot's documents that this one
        dropped or replaced, and ``removed`` the previous snapshot's profile
        ids that this one lacks; each is found by comparison if not given.
        The changed profiles are the fresh ones and the removed ones.  If a
        replaced document took away a position that a profile claims, every
        profile is checked, in the order of the profile map, which is file
        order after a full pass.  A profile with several bad references is
        reported for the first in the order the writer lists mentions: the
        order a set iterates in depends on how it was built.
        """
        documents = self.documents
        if removed is None:
            removed = self.prev_profiles.keys() - self.profiles.keys()
        self.changed = frozenset([p.profile_id for p in self.fresh]).union(removed)
        if replaced is None:
            replaced = [
                rec for key, rec in self.prev_documents.items()
                if documents.get(key) is not rec
            ]
        owners = self.owners
        if any(
            k in owners
            for old in replaced
            for k in _lost_mentions(old, documents.get(old.document_key))
        ):
            self.fresh = list(self.profiles.values())
        for prof in self.fresh:
            if _bad_reference(documents, prof.mentions) is not None:
                problem = _bad_reference(documents, sorted(prof.mentions, key=Signature.sort_key))
                raise self.error(f"profile {prof.profile_id}: {problem}")
        return Snapshot(self.date, self.profiles, self.documents)


def _bad_reference(
    documents: dict[str, DocumentRecord], mentions: Iterable[Signature]
) -> str | None:
    """What is wrong with the first of ``mentions`` whose document or
    position ``documents`` lacks, or None."""
    for doc_key, pos, _surface, role in mentions:
        doc = documents.get(doc_key)
        if doc is None:
            return f"mention references unknown document {doc_key!r}"
        names = doc.editors if role is _EDITOR else doc.authors
        if pos >= len(names):
            return (
                f"position {pos} out of range for {role.value} list of "
                f"{doc_key} (length {len(names)})"
            )
    return None


def _lost_mentions(old: DocumentRecord, new: DocumentRecord | None) -> Iterator[MentionKey]:
    """Owner-index keys of the positions ``old`` has and ``new``, the record
    now under its key, does not."""
    key = old.document_key
    authors, editors = (len(new.authors), len(new.editors)) if new is not None else (0, 0)
    for pos in range(authors, len(old.authors)):
        yield key, pos, _AUTHOR
    for pos in range(editors, len(old.editors)):
        yield key, pos, _EDITOR


# Canonical output is line-oriented with a closed escape inventory, so a
# file that matches these byte-for-byte needs no XML machinery.  The value
# classes exclude "&" entirely, so any entity or stray markup falls back,
# and every character expat would reject or read differently: the control
# characters XML forbids, carriage return, and tab inside attribute values
# (which expat turns into a space).
_BAD = r"\x00-\x08\x0b-\x1f\ufffe\uffff"
_ATTR = rf'[^"&<>\t{_BAD}]*'
_TEXT = rf"[^&<>{_BAD}]*"
# Of fixed length: the record lines of every canonical file start at one offset.
_CANON_HEAD = re.compile(
    rb'<\?xml version="1\.0" encoding="UTF-8"\?>\n'
    rb'<snapshot date="(\d{4}-\d{2}-\d{2})" version="1">\n'
)
_CANON_END = b"\n</snapshot>\n"
# A newline before a line that does not start as record lines do.
_BAD_START = re.compile(rb'\n(?!<document pkey="|<profile authorid=")')
# One ``fullmatch`` proves a whole record line, and its groups read it.
# ``_ATTR`` excludes '"' and both value classes exclude "<", so a value ends
# at the first quote or tag after it, and each optional part is told apart
# by the characters that start it.  A line therefore splits into its start
# tag, its children or signatures, and its end tag in at most one way, and
# ``_CANON_SIG.findall`` reads back the signatures the match proved, one
# after another from the start of the profile's body.
_CANON_DOC = re.compile(
    rf'<document pkey="({_ATTR})"(?: year="(-?[0-9]+)")?(?: url="({_ATTR})")?>'
    rf"(?:<title>({_TEXT})</title>)?"
    rf'(?:<venue key="({_ATTR})">({_TEXT})</venue>)?'
    rf"((?:<author>{_TEXT}</author>)*)"
    rf"((?:<editor>{_TEXT}</editor>)*)"
    r"</document>"
)
_CANON_NAME = re.compile(rf"<(?:author|editor)>({_TEXT})</(?:author|editor)>")
_CANON_PROFILE = re.compile(
    rf'<profile authorid="({_ATTR})">('
    rf'(?:<signature pkey="{_ATTR}" pos="[0-9]+" surface="{_ATTR}"(?: role="editor")?/>)*'
    r")</profile>"
)
_CANON_SIG = re.compile(
    rf'<signature pkey="({_ATTR})" pos="([0-9]+)" surface="({_ATTR})"'
    r'( role="editor")?/>'
)


def _changed_lines(
    old: bytes, new: bytes, body: int
) -> tuple[list[int], list[tuple[bool, str]]] | str:
    """The record lines, from ``body`` on, of canonical files ``old`` and
    ``new`` that a walk pairs with no identical line: the offsets of
    ``new``'s, and whether each of ``old``'s is a profile and its key, in
    file order.  Else why ``new`` is not in canonical form.

    The walk skips the longest equal stretch of both files
    (``_equal_bytes``).  Of the two lines holding the first unequal byte, it
    steps past the one that sorts first as bytes: the writer's order
    (documents by key, then profiles by id), but for a key that extends
    another by a space or ``!``.  Lines pair only when byte-identical, each
    at most once, so a file in any order reads correctly; in writer order,
    only the changed lines stay unpaired.
    """
    view = memoryview(old)
    p = q = body
    p_end, q_end = len(old) - len(_CANON_END) + 1, len(new) - len(_CANON_END) + 1
    added, gone = [], []
    while True:
        n = _equal_bytes(view, new, p, q, min(p_end - p, q_end - q))
        # Every line that the equal bytes end is paired.
        k = old.rfind(b"\n", p, p + n) + 1 or p
        p, q = k, q + k - p
        if p == p_end and q == q_end:
            return added, gone
        old_line = old[p:old.index(b"\n", p) + 1]
        new_line = new[q:new.index(b"\n", q) + 1]
        if q < q_end and (p == p_end or new_line < old_line):
            if _BAD_START.match(new, q - 1):
                return _not_canonical(new, q)
            added.append(q)
            q += len(new_line)
        else:
            # The first value on a canonical line is its record's key.
            gone.append((old_line[1:2] == b"p", old_line.split(b'"', 2)[1].decode()))
            p += len(old_line)


def _equal_bytes(view: memoryview, new: bytes, p: int, q: int, limit: int) -> int:
    """How many bytes ``view`` from ``p`` and ``new`` from ``q`` have equal,
    up to ``limit``, which both must hold.

    ``startswith`` on memoryview slices compares at memcmp speed with no
    copy.  The stretch doubles while it matches, then halves down to the
    first unequal byte, so the count is exact.
    """
    n, step = 0, 1
    while step <= limit - n and new.startswith(view[p + n:p + n + step], q + n):
        n, step = n + step, step * 2
    while step > 1:
        step //= 2
        if step <= limit - n and new.startswith(view[p + n:p + n + step], q + n):
            n += step
    return n


def _not_canonical(data: bytes, start: int) -> str:
    """Why the record line at offset ``start`` of ``data`` is not in
    canonical form."""
    number = data.count(b"\n", 0, start) + 1
    try:
        data[start:data.index(b"\n", start)].decode("utf-8")
    except UnicodeDecodeError:
        return f"line {number} not UTF-8"
    return f"line {number} not a canonical record"


# Whether a record is a profile, and what a parser made of it: a profile
# and its mentions as listed, or a document.
_Parsed = tuple[bool, "tuple[Profile, list[Signature]] | DocumentRecord"]


def _parse_lines(lines: Iterable[bytes]) -> Iterator[_Parsed | None]:
    """Parse canonical record lines one by one; None for a line that is not
    in that form."""
    for line in lines:
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            yield None
            continue
        is_profile = text[1:2] == "p"
        parsed = _parse_profile(text) if is_profile else _parse_document(text)
        yield None if parsed is None else (is_profile, parsed)


def _parse_profile(line: str) -> tuple[Profile, list[Signature]] | None:
    """A canonical profile line's record and its mentions as listed."""
    m = _CANON_PROFILE.fullmatch(line)
    if m is None:
        return None
    intern = sys.intern
    sigs = [
        _new_tuple(Signature, (
            intern(pkey), int(pos), intern(surface), _EDITOR if editor else _AUTHOR
        ))
        for pkey, pos, surface, editor in _CANON_SIG.findall(m.group(2))
    ]
    return _new_tuple(Profile, (intern(m.group(1)), frozenset(sigs))), sigs


def _parse_document(line: str) -> DocumentRecord | None:
    """A canonical document line's record."""
    m = _CANON_DOC.fullmatch(line)
    if m is None:
        return None
    pkey, year, url, title, venue_key, venue, authors, editors = m.groups()
    intern = sys.intern
    return _new_tuple(DocumentRecord, (
        intern(pkey),
        title or "",
        int(year) if year is not None else 0,
        intern(venue_key) if venue_key is not None else None,
        intern(venue) if venue is not None else None,
        tuple(map(intern, _CANON_NAME.findall(authors))) if authors else (),
        tuple(map(intern, _CANON_NAME.findall(editors))) if editors else (),
        url,
    ))


class _Spans(NamedTuple):
    """An expat-read file and where its top-level records lie in it.

    ``order`` holds, flat and in file order, the start and end offsets of
    each record whose start tag is literally in ``data`` (so it begins
    ``<document`` or ``<profile``), from its start tag through its end tag:
    record ``i`` spans ``data[order[2 * i]:order[2 * i + 1]]``.  The list is
    sorted, so a bisection finds the records up to an offset, and a run of
    records moves to another file as one slice shifted by one offset.
    ``keys`` holds whether each is a profile, and its key: a document and a
    profile may share a key.
    """

    data: bytes
    root: int  # offset of the root start tag; the bytes before it are the prolog
    order: list[int]
    keys: list[tuple[bool, str]]


_START_TAGS = {"document": b"<document", "profile": b"<profile"}
_END_TAGS = {"document": b"</document", "profile": b"</profile"}
# A record start tag whose first attribute is its key.
_RECORD_KEY = re.compile(
    rb"<(?:document[ \t\r\n]+pkey|profile[ \t\r\n]+authorid)[ \t\r\n]*=[ \t\r\n]*"
    rb"(?:\"([^\"]*)\"|'([^']*)')"
)


def _runs(data: bytes, last: _Spans) -> Iterator[tuple[int, int, int, int]]:
    """Propose the runs of ``last``'s records in ``data``, in file order.

    A run is a stretch of ``data`` equal to records ``i`` to ``k - 1`` of
    ``last``'s file, whole, with the gaps between them; it is yielded as
    its start and end offsets in ``data``, ``i`` and ``k``.  At each start
    tag whose key names a record of ``last``, ``_equal_bytes`` compares the
    two files from there and from that record's start, and a bisection over
    ``last.order`` cuts the equal stretch after the last record it holds
    whole.  A proposal proves nothing about where expat is: the bytes may
    lie inside a comment or a CDATA section.

    Once expat reports the run's first start tag at the top level at
    exactly its offset, the rest of the run needs no proof, its gaps
    included, and its records are ``last``'s:

    - expat is deterministic: in equal states, equal bytes give equal
      events and errors;
    - both files share the prolog, so the declaration, encoding and DTD
      that decide what the bytes mean are the same;
    - both parsers stand at depth 1, inside the root, at a start tag, which
      is all the state that one top-level record passes to the next;
    - so expat reads the stretch as it read it in ``last``'s file, where
      it raised nothing, and where each gap was checked, either with the
      callbacks on or as an equal gap of the file before it.  Every record
      of that file has a span, so no gap holds a record, as one from an
      entity reference would be.

    So expat need not read the run past its first record.  After that
    record's end tag it stands at depth 1, between top-level elements, in
    the state that feeding it the rest of the run would leave it in, but
    for two things.  One is its byte, line and column counters:
    ``_expat_builder`` adds the bytes it skips back to every byte offset it
    reads from the parser, and line and column are never reported, because
    any error in a delta reruns the file as a full pass.  The other is the
    tally by which expat refuses a file whose entities expand too far
    against the bytes it reads.  Where the prolog declares no entity,
    nothing expands and the tally cannot refuse; where it declares one,
    each run is read whole.
    """
    order = last.order
    view = memoryview(last.data)
    index = dict(zip(last.keys, range(len(last.keys))))
    m = _RECORD_KEY.search(data, last.root + 1)
    while m is not None:
        q = m.start()
        key = m.group(m.lastindex).decode("utf-8", "replace")  # type: ignore[arg-type]
        # A document and a profile may share a key.
        i = index.get((data.startswith(b"<p", q), key), -1)
        if i >= 0:
            p = order[2 * i]
            n = _equal_bytes(view, data, p, q, min(order[-1] - p, len(data) - q))
            # The offsets up to ``p + n`` pair up into whole records, but
            # for the start of one the stretch cuts off.
            k = bisect_right(order, p + n, 2 * i) // 2
            if k > i:
                end = q + order[2 * k - 1] - p
                yield q, end, i, k
                m = _RECORD_KEY.search(data, end)
                continue
        m = _RECORD_KEY.search(data, q + 1)


def _expat_builder(
    data: bytes,
    prev: Snapshot | None,
    source_name: str | None,
    last: _Builder | None = None,
) -> tuple[_Builder, Snapshot]:
    """Read ``data`` with expat; the builder holding its records and their
    spans, and the snapshot.

    With ``last``, the builder of the file ``prev`` was read from, which
    ``_Reader.expat`` found fit, ``data`` is read as a record delta of that
    file, and the builder returned is ``last``, turned into the builder of
    ``data``.  ``_runs`` proposes runs of ``last``'s records, and expat gets
    the bytes in order up to the end of each run's first record.  When it
    reports that record, with its handlers on, as a top-level start tag at
    exactly the run's offset, every handler goes off for the rest of the
    record, and expat resumes at the run's end (where the prolog declares
    an entity, it reads on to there with the handlers off): that report
    proves where the run lies, and ``_runs`` argues why the rest of it needs
    neither proof nor reading.  ``skipped`` counts the bytes expat never
    got.  The run's spans, keys and marks of the records that came back
    carry over as slices.  Every other byte is read with the handlers on,
    and the records built from it go to ``_Builder.delta`` with the records
    of ``last`` that did not come back.  Markup errors and their offsets
    are expat's, as in a full pass; integrity errors are found out of file
    order, so a caller reruns a failed delta without ``last``.

    The handlers never refer to one another, and the parser drops them when
    the parse ends, so no reference cycle keeps ``data`` alive.
    """
    intern = sys.intern
    build: _Builder | None = None
    date = ""
    root = -1
    # The spans of ``last``'s file, and the records a delta builds, for
    # ``_Builder.delta``; None in a full pass.
    prior = last.spans if last is not None else None
    fresh: list[_Parsed] | None = [] if last is not None else None
    # The spans and keys of the top-level records, as ``_Spans`` holds them.
    order: list[int] = []
    keys: list[tuple[bool, str]] = []
    # Start offset of the top-level record being read.
    record_start = -1
    # Where the run fed next starts.
    target = -1
    # document under construction
    doc_attrs: dict[str, str] = {}
    doc_title: list[str] = []
    doc_venue: tuple[str | None, list[str]] | None = None
    doc_authors: list[str] = []
    doc_editors: list[str] = []
    # profile under construction
    prof_id: str | None = None
    prof_sigs: list[Signature] = []

    # The open elements down to a record, under an empty name for the
    # document itself, and the open child of a record, if any.
    stack: list[str] = [""]
    child = ""
    # The text of the element being read, and the list it goes to.
    text: list[str] = []
    capturing: list[str] | None = None

    parser = expat.ParserCreate()
    parser.buffer_text = True

    def fail(message: str) -> FormatError:
        return FormatError(message, parser.CurrentByteIndex + skipped, source_name)

    def require(attrs: dict[str, str], name: str, element: str) -> str:
        value = attrs.get(name)
        if value is None:
            raise fail(f"<{element}> lacks required attribute {name!r}")
        return value

    def start(name: str, attrs: dict[str, str]) -> None:
        nonlocal build, date, root, record_start, doc_attrs, doc_venue, prof_id, capturing, child
        if child:
            raise fail(f"unexpected element <{name}> inside <{child}>")
        parent = stack[-1]
        # A record's children, the most common elements, come first and
        # stay off the stack.
        if name == "signature" and parent == "profile":
            try:
                pos = attrs["pos"]
                sig: Signature | None = _new_tuple(Signature, (
                    intern(attrs["pkey"]),
                    int(pos) if pos.isdigit() and pos.isascii() else parse_position(pos),
                    intern(attrs["surface"]),
                    _ROLES[attrs.get("role", "author")],
                ))
            except (KeyError, ValueError):
                sig = None
            if sig is None:
                # Report the first fault: pkey, pos, surface, then role.
                require(attrs, "pkey", name)
                try:
                    parse_position(require(attrs, "pos", name))
                except ValueError as exc:
                    raise fail(str(exc)) from None
                require(attrs, "surface", name)
                raise fail(f"unknown signature role {attrs['role']!r}")
            prof_sigs.append(sig)
            child = name
            return
        elif parent == "document":
            if name == "author":
                capturing = doc_authors
            elif name == "title":
                if doc_title:
                    raise fail("second <title> in one <document>")
                capturing = doc_title
            elif name == "editor":
                capturing = doc_editors
            elif name == "venue":
                if doc_venue is not None:
                    raise fail("second <venue> in one <document>")
                doc_venue = (attrs.get("key"), [])
                capturing = doc_venue[1]
            else:
                raise fail(f"unexpected element <{name}> under <document>")
            child = name
            return
        elif not parent:
            if name != "snapshot":
                raise fail(f"expected <snapshot> root, got <{name}>")
            version = attrs.get("version", FORMAT_VERSION)
            if version != FORMAT_VERSION:
                raise fail(f"unsupported snapshot format version {version!r}")
            date = require(attrs, "date", name)
            try:
                validate_date(date)
            except ValueError as exc:
                raise fail(str(exc)) from None
            root = parser.CurrentByteIndex
            if fresh is None:
                build = _Builder(date, prev, source_name)
        elif parent == "snapshot":
            record_start = parser.CurrentByteIndex + skipped
            if record_start == target and fresh is not None:
                # The run the walk proposed starts here, at the top level:
                # expat reads its first record with every handler off.
                parser.StartElementHandler = None
                parser.EndElementHandler = parser.CharacterDataHandler = None
                return
            if name == "document":
                doc_attrs = attrs
                doc_title.clear()
                doc_venue = None
                doc_authors.clear()
                doc_editors.clear()
            elif name == "profile":
                prof_id = require(attrs, "authorid", name)
                prof_sigs.clear()
            else:
                raise fail(f"unexpected element <{name}> under <snapshot>")
        else:  # a profile, the only element the stack holds besides these
            raise fail(f"unexpected element <{name}> under <profile>")
        stack.append(name)

    def note_span(name: str, key: str) -> None:
        """Note the span of the top-level record whose end event this is,
        unless its start tag is not literally in ``data`` (an entity's
        replacement text, or an encoding that is not ASCII-compatible)."""
        if not data.startswith(_START_TAGS[name], record_start):
            return
        end = parser.CurrentByteIndex + skipped
        # The end event of ``<x>...</x>`` sits at ``</x``, that of ``<x/>``
        # just after ``/>``.  ``>`` may occur inside attribute values, so the
        # end is found from here, not by a search from the start tag.
        if data.startswith(_END_TAGS[name], end):
            end = data.index(b">", end) + 1
        order.extend((record_start, end))
        keys.append((name == "profile", key))

    def end(name: str) -> None:
        nonlocal prof_id, capturing, child
        if child:
            child = ""
            if capturing is not None:
                capturing.append("".join(text))
                text.clear()
                capturing = None
            return
        stack.pop()
        if name == "document":
            pkey = intern(require(doc_attrs, "pkey", name))
            year_raw = doc_attrs.get("year", "0")
            try:
                year = parse_int(year_raw)
            except ValueError:
                raise fail(f"non-integer year {year_raw!r} on document {pkey}") from None
            venue_key: str | None = None
            venue_name: str | None = None
            if doc_venue is not None:
                raw_key, name_parts = doc_venue
                venue_name = intern("".join(name_parts))
                venue_key = intern(raw_key) if raw_key is not None else venue_name
            record = _new_tuple(DocumentRecord, (
                pkey,
                "".join(doc_title),
                year,
                venue_key,
                venue_name,
                tuple(map(intern, doc_authors)),
                tuple(map(intern, doc_editors)),
                doc_attrs.get("url"),
            ))
            if fresh is None:
                build.document(record)  # type: ignore[union-attr]
            else:
                fresh.append((False, record))
            note_span(name, pkey)
        elif name == "profile":
            assert prof_id is not None
            pid = intern(prof_id)
            prof = _new_tuple(Profile, (pid, frozenset(prof_sigs)))
            if fresh is None:
                build.profile(prof, prof_sigs)  # type: ignore[union-attr]
            else:
                fresh.append((True, (prof, list(prof_sigs))))
            note_span(name, pid)
            prof_id = None

    def chars(chunk: str) -> None:
        if capturing is not None:
            text.append(chunk)
        elif not chunk.isspace():
            raise fail(f"stray text {chunk.strip()[:40]!r}")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    # Which records of ``last`` came back, by position in its spans.
    kept = bytearray(len(prior.keys) if prior is not None else 0)
    reused = 0
    # Bytes of ``data`` expat never got; it counts offsets without them.
    skipped = 0

    try:
        with memoryview(data) as view:
            fed = 0
            if prior is not None:
                # Where entities may expand, expat reads each run whole
                # (see ``_runs``).
                skip = b"<!ENTITY" not in prior.data[:prior.root]
                for target, run_end, i, k in _runs(data, prior):
                    # The end of the run's first record, in ``data``.
                    stop = target + prior.order[2 * i + 1] - prior.order[2 * i]
                    stop = stop if skip else run_end
                    parser.Parse(view[fed:stop], False)
                    fed = stop
                    if parser.StartElementHandler is None:
                        skipped += run_end - stop
                        fed = run_end
                        parser.StartElementHandler = start
                        parser.EndElementHandler = end
                        parser.CharacterDataHandler = chars
                        shift = target - prior.order[2 * i]
                        order += map(shift.__add__, prior.order[2 * i:2 * k])
                        keys += prior.keys[i:k]
                        kept[i:k] = b"\1" * (k - i)
                        reused += k - i
            parser.Parse(view[fed:], True)
    except expat.ExpatError as exc:
        raise FormatError(
            f"malformed snapshot XML: {exc}", parser.ErrorByteIndex + skipped, source_name
        ) from None
    finally:
        parser.StartElementHandler = parser.EndElementHandler = parser.CharacterDataHandler = None

    spans = _Spans(data, root, order, keys)
    if fresh is None:
        if build is None:
            raise FormatError("no <snapshot> element found", -1, source_name)
        build.spans = spans
        return build, build.snapshot()
    assert last is not None and prior is not None
    gone = []
    j = kept.find(0)
    while j >= 0:
        gone.append(prior.keys[j])
        j = kept.find(0, j + 1)
    snapshot = last.delta(date, source_name, gone, fresh, reused + len(fresh))
    last.spans = spans
    return last, snapshot


def iter_snapshot_xml(snapshot: Snapshot) -> Iterator[str]:
    """Yield the canonical serialization as text fragments.

    One line per record, documents before profiles, everything sorted, so
    output bytes are a pure function of the snapshot value.  Each record
    line comes from ``_document_line`` or ``_profile_line``, the renderers
    ``_Series.lines`` uses too, so this is the reference for every file
    ``write_snapshot_to`` writes.
    """
    yield _HEAD
    yield _root(snapshot.time)
    documents = snapshot.documents
    for key in sorted(documents):
        yield _document_line(documents[key])
    profiles = snapshot.profiles
    for pid in sorted(profiles):
        yield _profile_line(pid, profiles[pid])
    yield _TAIL


_HEAD = '<?xml version="1.0" encoding="UTF-8"?>\n'
_TAIL = "</snapshot>\n"


def _root(date: str) -> str:
    return f'<snapshot date="{date}" version="{FORMAT_VERSION}">\n'


def _document_line(d: DocumentRecord) -> str:
    """A document's record line, newline included.  A venue key without a
    name, or a name without a key, raises FormatError, since the line
    could not carry it."""
    parts = [f'<document pkey="{escape_attr(d.document_key)}"']
    if d.year:
        parts.append(f' year="{d.year}"')
    if d.external_link is not None:
        parts.append(f' url="{escape_attr(d.external_link)}"')
    parts.append(">")
    if d.title:
        parts.append(f"<title>{escape_text(d.title)}</title>")
    if d.venue_key is not None and d.venue_name is not None:
        parts.append(
            f'<venue key="{escape_attr(d.venue_key)}">{escape_text(d.venue_name)}</venue>'
        )
    elif d.venue_key is not None or d.venue_name is not None:
        raise FormatError(_unpaired_venue(d))
    for a in d.authors:
        parts.append(f"<author>{escape_text(a)}</author>")
    for e in d.editors:
        parts.append(f"<editor>{escape_text(e)}</editor>")
    parts.append("</document>\n")
    return "".join(parts)


def _profile_line(pid: str, prof: Profile) -> str:
    """The record line of profile ``prof``, filed under ``pid``, newline
    included."""
    parts = [f'<profile authorid="{escape_attr(pid)}">']
    for m in sorted(prof.mentions, key=Signature.sort_key):
        bit = (
            f'<signature pkey="{escape_attr(m.document_key)}" pos="{m.position}"'
            f' surface="{escape_attr(m.surface)}"'
        )
        if m.role is Role.EDITOR:
            bit += ' role="editor"'
        parts.append(bit + "/>")
    parts.append("</profile>\n")
    return "".join(parts)


class _Series:
    """The snapshot a series wrote last and its encoded record lines by key.

    ``lines`` renders the next snapshot of the series and makes it the last
    one.  A record that is the very object (``is``) of the last snapshot's
    record under the same key reuses that record's line.  Equal records
    that are other objects are rendered again.  Only the last snapshot's lines are held:
    each is popped as it is reused or replaced, and the lines left over,
    those of dropped records, go when ``lines`` returns.
    """

    __slots__ = ("snapshot", "documents", "profiles")

    def __init__(self) -> None:
        self.snapshot: Snapshot | None = None
        self.documents: dict[str, bytes] = {}
        self.profiles: dict[str, bytes] = {}

    def lines(self, snapshot: Snapshot) -> list[bytes]:
        """Every line of ``snapshot``'s file, encoded, in file order.

        If rendering fails, the lines not yet popped stay valid, so the
        state is still safe to use.
        """
        last = self.snapshot
        last_documents = last.documents if last is not None else {}
        last_profiles = last.profiles if last is not None else {}
        out = [_HEAD.encode(), _root(snapshot.time).encode()]
        old, documents = self.documents, {}
        for key in sorted(snapshot.documents):
            doc = snapshot.documents[key]
            line = old.pop(key, None)
            if line is None or doc is not last_documents[key]:
                line = _document_line(doc).encode()
            documents[key] = line
            out.append(line)
        old, profiles = self.profiles, {}
        for pid in sorted(snapshot.profiles):
            prof = snapshot.profiles[pid]
            line = old.pop(pid, None)
            if line is None or prof is not last_profiles[pid]:
                line = _profile_line(pid, prof).encode()
            profiles[pid] = line
            out.append(line)
        out.append(_TAIL.encode())
        self.snapshot, self.documents, self.profiles = snapshot, documents, profiles
        return out


def write_snapshot(snapshot: Snapshot) -> bytes:
    """Serialize to bytes (uncompressed)."""
    return "".join(iter_snapshot_xml(snapshot)).encode("utf-8")


def write_snapshot_to(
    snapshot: Snapshot,
    path: str | Path,
    *,
    series: _Series | None = None,
) -> Path:
    """Write a snapshot file, gzipped when its name ends in ``.gz``.

    Gzip output is the member ``gzip.GzipFile(filename="", mtime=0)``
    writes at level 9 (``_gzip_member``): mtime pinned and the name field
    empty, so identical snapshots give identical files whatever they are
    called.  If writing fails (a value the format cannot carry raises
    FormatError), the error propagates and no file is left.

    The lines come from ``_Series.lines``.  ``series`` is the state
    ``write_history`` keeps between the files of one series: the snapshot
    written before this one and its lines.  Each record that is the very
    object of that snapshot's record reuses its line, and only the others
    are rendered.  Without it, a fresh ``_Series`` has no earlier lines to
    reuse.  The bytes are those of ``write_snapshot`` either way.

    In an ``_early_gzip`` block, the gzipped file of the very snapshot
    object (``is``) whose render the block's thread deflated is that
    member, taken once the thread is done, and is not rendered here.  Any
    other file is rendered, and gzipped, as outside the block.
    """
    path = Path(path)
    gz = path.suffix == ".gz"
    early = _EARLY.get() if gz else None
    member = early.take() if early is not None and early.snapshot is snapshot else None
    raw = open(path, "wb")
    try:
        with raw:
            if member is not None:
                raw.write(member)
            else:
                chunks = _chunks((series or _Series()).lines(snapshot))
                for piece in _gzip_member(chunks) if gz else chunks:
                    raw.write(piece)
    except BaseException:
        path.unlink()
        raise
    return path


def _chunks(lines: list[bytes]) -> Iterator[bytes]:
    """``lines`` joined 4096 at a time, as the writer writes them."""
    for i in range(0, len(lines), 4096):
        yield b"".join(lines[i:i + 4096])


# What ``gzip.GzipFile(filename="", mtime=0)`` writes first at level 9:
# magic, deflate, no flags, mtime 0, "slowest compression", OS unknown.
_GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\xff"


def _gzip_member(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """The gzip member of ``chunks`` joined, in pieces: the bytes
    ``gzip.GzipFile(filename="", mode="wb", mtime=0)`` writes for them, at
    level 9, however they are split.  This is the one gzip encoder of the
    writers."""
    yield _GZIP_HEADER
    deflate = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS, zlib.DEF_MEM_LEVEL, 0)
    crc = size = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
        size += len(chunk)
        yield deflate.compress(chunk)
    yield (deflate.flush() + crc.to_bytes(4, "little")
           + (size & 0xFFFFFFFF).to_bytes(4, "little"))


class _EarlyGzip:
    """The gzip member of the snapshot file of ``date``, which a thread of
    its own deflates beside the loader (``_early_gzip``).

    ``load_history`` hands it that file's bytes (``read``), then the
    snapshot it read from them (``loaded``).  Bytes that are not gzipped
    are deflated at once, since they may be that snapshot's very render.
    ``loaded`` alone settles what the export is: it renders the snapshot
    once and keeps the member of the bytes if the render is exactly those
    bytes; otherwise, always for a gzipped file, the thread deflates the
    render.  Either way it lets go of the bytes, and ``snapshot`` is then
    that very object, whose gzipped file is the member.  The thread lets
    go of what it deflates as it finishes, so only the member stays.
    """

    __slots__ = ("date", "move", "data", "snapshot", "member", "thread")

    def __init__(self, date: str, move: Callable[[], None]) -> None:
        self.date = date
        # The call that moves the thread beside its caller (``_cpus._beside``).
        self.move = move
        self.data: bytes | None = None
        self.snapshot: Snapshot | None = None
        self.member: bytes | None = None
        self.thread: threading.Thread | None = None

    def read(self, data: bytes) -> None:
        """The loader read ``data`` from the file.  Unless they are
        gzipped, deflate them at once."""
        if data[:2] != GZIP_MAGIC:
            self.data = data
            self.start((data,))

    def start(self, chunks: Iterable[bytes]) -> None:
        """Deflate ``chunks`` on a thread of its own."""
        import threading

        self.thread = threading.Thread(target=self.deflate, args=(chunks,), name="corrhist-gzip")
        self.thread.start()

    def deflate(self, chunks: Iterable[bytes]) -> None:
        """The thread's work: move it beside its caller, then deflate the
        member."""
        self.move()
        try:
            self.member = b"".join(_gzip_member(chunks))
        except MemoryError:
            pass  # the write gzips the render instead

    def loaded(self, snapshot: Snapshot) -> None:
        """The loader read ``snapshot`` from the bytes.  Render it once and
        keep the member if the render is those very bytes; else wait for
        the thread, if one runs, and deflate the render on a new one.  A
        render that raises starts nothing: the write renders again and
        raises there."""
        data, self.data = self.data, None
        try:
            lines = _Series().lines(snapshot)
        except FormatError:
            return
        if data is None or not _renders_as(lines, data):
            if self.thread is not None:
                self.take()  # the member of the bytes is not the export's
            self.start(_chunks(lines))
        self.snapshot = snapshot

    def take(self) -> bytes | None:
        """Wait for the thread, if one runs; the member, None if deflating
        failed.  The thread, the member and the snapshot are let go."""
        if self.thread is not None:
            self.thread.join()
        member, self.snapshot, self.member, self.thread = self.member, None, None, None
        return member


def _renders_as(lines: list[bytes], data: bytes) -> bool:
    """Whether ``lines``, joined, are ``data``; no copy of ``data`` is made."""
    at = 0
    for chunk in _chunks(lines):
        if not data.startswith(chunk, at):
            return False
        at += len(chunk)
    return at == len(data)


# The early gzip of the ``_early_gzip`` block this context runs: the one
# channel through which ``load_history`` and ``write_snapshot_to`` find it.
_EARLY: ContextVar[_EarlyGzip | None] = ContextVar("_EARLY", default=None)


@contextmanager
def _early_gzip(date: str) -> Iterator[None]:
    """Gzip the snapshot file of ``date`` on a second CPU while the block
    runs.

    Unless this process may use two CPUs or more, this starts nothing.
    Otherwise the caller runs on the first CPU of its mask
    (``_cpus._beside``), and the block's ``_EarlyGzip`` is ``_EARLY``:
    ``load_history`` hands it the file of ``date``, whose thread deflates
    on the second CPU, and ``write_snapshot_to`` writes the member for the
    gzipped file of the snapshot read from it.  However the block ends,
    the thread is joined and the caller gets its mask back.
    """
    cpus = _cpu_mask()
    if len(cpus) < 2:
        yield
        return
    with _beside(cpus) as move:
        early = _EarlyGzip(date, move)
        token = _EARLY.set(early)
        try:
            yield
        finally:
            _EARLY.reset(token)
            if early.thread is not None:
                early.take()  # a thread the write did not take


@dataclass(frozen=True)
class SnapshotFile:
    """A snapshot file on disk plus the date its name declares."""

    path: Path
    date: str

    @classmethod
    def from_path(cls, path: str | Path) -> "SnapshotFile":
        path = Path(path)
        m = _FILENAME_RE.fullmatch(path.name)
        if m is None:
            raise FormatError(
                f"snapshot file name must look like snapshot-YYYY-MM-DD.xml[.gz]: "
                f"{path.name}"
            )
        return cls(path, validate_date(m.group(1)))


def snapshot_filename(date: str, *, compress: bool = False) -> str:
    """The canonical file name for a snapshot observed at ``date``."""
    return f"snapshot-{date}.xml" + (".gz" if compress else "")


def discover_snapshot_files(directory: str | Path) -> list[SnapshotFile]:
    """All snapshot files in a directory, ordered by declared date, and
    files of one date by name."""
    found = [
        SnapshotFile.from_path(p)
        for p in Path(directory).iterdir()
        if _FILENAME_RE.fullmatch(p.name)
    ]
    return sorted(found, key=lambda f: (f.date, f.path.name))


def load_history(directory: str | Path) -> History:
    """Load the canonically named snapshot files in ``directory`` into a
    History.

    Declared dates must strictly increase, so two files of one date (such
    as ``snapshot-D.xml`` beside ``snapshot-D.xml.gz``) raise IntegrityError
    naming both, and each file's header date must match its declared date.
    The files are read in date order by one reader, so each snapshot shares
    every record equal to the previous snapshot's record under its key, and
    each file after the first is read as a delta of the one before, by one
    of the paths ``_Reader`` lists: a canonical file by walking its bytes
    against the previous file's.  Only the records that changed are built
    and checked.  The ids of the profiles each file changed against the one
    before, which the reader knows from that work, go into the history's
    ``profile_changes``.

    Called in an ``_early_gzip`` block, it hands the block's
    ``_EarlyGzip`` (``_EARLY``) the bytes of the file of its date, then
    the snapshot read from them.
    """
    files = discover_snapshot_files(directory)
    if not files:
        raise FormatError(f"no snapshot files found in {directory}")
    for before, after in zip(files, files[1:]):
        if after.date <= before.date:
            raise IntegrityError(
                f"snapshot dates must strictly increase: {before.path.name} "
                f"then {after.path.name}"
            )
    early = _EARLY.get()
    reader = _Reader()
    snapshots: list[Snapshot] = []
    changes: list[frozenset[str]] = []
    with _collection_paused():
        for file in files:
            data = file.path.read_bytes()
            t1 = early if early is not None and early.date == file.date else None
            if t1 is not None:
                t1.read(data)
            snap = reader.read(data, str(file.path))
            if snap.time != file.date:
                raise FormatError(
                    f"{file.path.name} declares date {file.date} but its header "
                    f"says {snap.time}"
                )
            if t1 is not None:
                t1.loaded(snap)
            if snapshots:
                changes.append(reader.build.changed)  # type: ignore[union-attr]
            snapshots.append(snap)
    return History(tuple(snapshots), tuple(changes))


def write_history(history: History, directory: str | Path, *, compress: bool = False) -> list[Path]:
    """Write every snapshot of ``history`` into ``directory`` under its
    canonical file name; the mirror of ``load_history``.  Returns the paths.

    The directory is created if needed.  A snapshot file already there that
    this series would not overwrite (another date, or the other compression
    of one of its dates) would be loaded with the series as one history, so
    it raises FileExistsError naming the file before anything is written.
    The files are written in order through one ``write_snapshot_to`` call
    each, sharing one ``_Series``: a record that is the very object of the
    previous snapshot's record reuses its line, so a file costs about what
    changed in it.  The bytes are those of each snapshot written alone.
    """
    directory = Path(directory)
    names = [snapshot_filename(s.time, compress=compress) for s in history.snapshots]
    _refuse_strays(directory, names)
    directory.mkdir(parents=True, exist_ok=True)
    series = _Series()
    return [
        write_snapshot_to(snap, directory / name, series=series)
        for snap, name in zip(history.snapshots, names)
    ]


def _refuse_strays(directory: Path, names: Iterable[str]) -> None:
    """Raise FileExistsError naming a snapshot file in ``directory`` that
    writing the files ``names`` there would not overwrite (another date, or
    the other compression of one of their dates): loaded with them, it
    would mix two series."""
    if not directory.is_dir():
        return
    planned = set(names)
    stray = sorted(
        p.name for p in directory.iterdir()
        if _FILENAME_RE.fullmatch(p.name) and p.name not in planned
    )
    if stray:
        raise FileExistsError(
            f"{directory / stray[0]} belongs to no snapshot of this series; "
            f"writing here would mix two series"
        )
