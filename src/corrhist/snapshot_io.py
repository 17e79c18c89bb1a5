"""Reading and writing snapshot files.

A snapshot file is a flat XML document: a ``snapshot`` root carrying the
observation date, document records, then profile records.  Writing is
deterministic, so the same snapshot value always yields byte-identical
output.  A series is written as a line delta (``write_history``): a record
that is the very object of the previous snapshot's record keeps its line,
and only the other records are rendered.

Each file is read into memory whole and decompressed in one call if it
starts with the gzip magic bytes.  Files in the exact form this module writes
take a line-oriented fast path, everything else goes through expat.  Both
parsers feed one record builder, which alone enforces integrity, so they
accept and reject the same records with the same messages.  In a series, a
file in that form after another one is read as a line delta: only the lines
that changed are parsed, and only their records are checked.  A file expat
reads after a file expat read, with the same prolog, is a record delta:
expat reads every byte, but a top-level record whose bytes equal the
previous file's record under the same key is not rebuilt.  The builder
still checks it.
"""

from __future__ import annotations

import gzip
import re
import sys
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence
from xml.parsers import expat

from ._xml import escape_attr, escape_text, parse_int, parse_position
from .errors import FormatError, IntegrityError
from .model import DocumentRecord, Profile, Role, Signature, Snapshot, History, validate_date

FORMAT_VERSION = "1"

GZIP_MAGIC = b"\x1f\x8b"

_FILENAME_RE = re.compile(r"snapshot-([0-9]{4}-[0-9]{2}-[0-9]{2})\.xml(?:\.gz)?")

_TEXT_ELEMENTS = frozenset({"title", "venue", "author", "editor"})

# Hot loops test roles by identity; owner-index keys hold ``role is _EDITOR``.
_AUTHOR = Role.AUTHOR
_EDITOR = Role.EDITOR


def parse_snapshot(
    source: bytes | str | Path | BinaryIO, *, source_name: str | None = None
) -> Snapshot:
    """Parse one snapshot from bytes, a path, or a binary stream.

    The result satisfies ``Snapshot.validate``, which runs the same record
    builder: integrity violations in the input (a mention claimed by two
    profiles, a dangling document key, a position past the end of the name
    list, an empty profile id) raise IntegrityError naming the offending
    records and the file.  Malformed markup raises FormatError with the byte
    offset into the decompressed stream.
    """
    if source_name is None and isinstance(source, (str, Path)):
        source_name = str(source)
    return _Reader().read(source, source_name)


class _Reader:
    """Reads the files of one series, in order, one file at a time.

    A canonical file that follows a canonical file is read as a line delta
    against it (``_Builder.advance``): only the record lines it adds are
    parsed and checked, and every other record is the previous snapshot's
    object.  Any other file is read by expat.  When expat read the previous
    file too, and both files have the same prolog, a top-level record whose
    bytes equal the previous file's record under the same key is not
    rebuilt: expat still reads it, but its callbacks are off and the
    builder gets the previous snapshot's record (``_expat_builder``).
    Every full builder pass shares every record equal to the previous
    snapshot's.  ``retired`` holds the records that deltas dropped, so a
    record that comes back in a later file is shared again.
    """

    def __init__(self, prev: Snapshot | None = None) -> None:
        self.prev = prev
        # The builder of ``prev`` when its file was canonical: the state the
        # next delta starts from.
        self.build: _Builder | None = None
        # Where the records of ``prev`` lie in its file when expat read it.
        self.spans: _Spans | None = None
        self.retired: dict[Profile | DocumentRecord, Profile | DocumentRecord] = {}
        # Ids of the profiles the last file read changed against ``prev``.
        self.changed: frozenset[str] = frozenset()

    def read(self, source: bytes | str | Path | BinaryIO, source_name: str | None) -> Snapshot:
        if isinstance(source, (str, Path)):
            with open(source, "rb") as f:
                data = f.read()
        else:
            data = source if isinstance(source, bytes) else source.read()
        last, self.spans = self.spans, None
        if data[:2] == GZIP_MAGIC:
            try:
                data = gzip.decompress(data)
            except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
                raise FormatError(f"corrupt gzip stream: {exc}", -1, source_name) from None
        snapshot = self.canonical(data, source_name)
        if snapshot is None:
            try:
                build, spans = _expat_builder(data, self.prev, source_name, last)
                snapshot = build.snapshot()
            except IntegrityError:
                if last is None:
                    raise
                # A reused profile's mentions are checked in set order, not
                # in the order the file lists them; a pass without reuse
                # names the same conflict a single parse would.
                build, spans = _expat_builder(data, self.prev, source_name)
                snapshot = build.snapshot()
            self.changed = build.changed
            self.spans = spans
        self.prev = snapshot
        return snapshot

    def canonical(self, data: bytes, source_name: str | None) -> Snapshot | None:
        """Parse canonical serializer output; None means "not in that form".

        None is returned for markup reasons only.  Records go through the
        same builder as the general parser's, so a non-None result, or an
        IntegrityError, is exactly what the general parser would have
        produced.
        """
        build, self.build = self.build, None
        parts = _canonical_lines(data)
        if parts is None:
            return None
        date, lines = parts
        if build is not None:
            try:
                snapshot = build.advance(date, lines, source_name)
            except IntegrityError:
                pass  # the full pass below reports the first error in file order
            else:
                if snapshot is not None:
                    self.build = build
                    self.changed = build.changed
                return snapshot
        build = _Builder(date, self.prev, source_name, self.retired)
        if not build.add(_parse_lines(lines)):
            return None
        snapshot = build.snapshot()
        self.build = build
        self.changed = build.changed
        return snapshot


def _parse_canonical(
    data: bytes, prev: Snapshot | None, source_name: str | None = None
) -> Snapshot | None:
    """``_Reader.canonical`` on one file read after ``prev``."""
    return _Reader(prev).canonical(data, source_name)


class _Builder:
    """Collects one snapshot's records; the one place integrity is enforced.

    It rejects a duplicate document key or profile id, an empty profile id,
    an empty profile, a blank surface, a mention claimed twice, a venue key
    bound to two names, and mentions of unknown documents or positions.
    ``Snapshot.validate`` feeds a value's records through a builder without
    ``prev`` or a file name, so these rules have no other copy.  A record
    equal to the previous snapshot's record under the same key, or to a
    record in ``retired``, is replaced by that earlier object, so a series
    shares storage for everything unchanged.  ``prev`` must itself have
    come out of a builder.  ``snapshot`` records in ``changed`` the ids of
    the profiles whose record differs from ``prev``'s.  The builder of a
    canonical file keeps its record lines, the owner index and the venue
    counts, from which ``advance`` reads the next canonical file as a line
    delta.
    """

    def __init__(
        self,
        date: str,
        prev: Snapshot | None,
        source_name: str | None,
        retired: dict[Profile | DocumentRecord, Profile | DocumentRecord] | None = None,
    ):
        self.date = date
        self.source_name = source_name
        self.prev_profiles = prev.profiles if prev is not None else {}
        self.prev_documents = prev.documents if prev is not None else {}
        self.retired = retired if retired is not None else {}
        self.profiles: dict[str, Profile] = {}
        self.documents: dict[str, DocumentRecord] = {}
        self.venues: dict[str, str] = {}
        self.venue_docs: dict[str, int] = {}  # documents bound to each venue key
        self.owners: dict[tuple[str, int, bool], str] = {}
        # Profiles carried over from ``prev`` were checked against its
        # documents; the others still need their references checked.
        self.fresh: list[Profile] = []
        self.changed: frozenset[str] = frozenset()
        # A canonical file's record lines, each mapped to its key and record.
        self.doc_lines: dict[bytes, tuple[str, DocumentRecord]] = {}
        self.prof_lines: dict[bytes, tuple[str, Profile]] = {}

    def error(self, message: str) -> IntegrityError:
        return IntegrityError(message + (f" ({self.source_name})" if self.source_name else ""))

    def document(self, record: DocumentRecord, venue_name: str | None) -> DocumentRecord:
        key = record.document_key
        if key in self.documents:
            raise self.error(f"duplicate document key {key!r}")
        venue_key = record.venue_key
        if venue_key is not None:
            known = self.venues.setdefault(venue_key, venue_name)  # type: ignore[arg-type]
            if known != venue_name:
                raise self.error(
                    f"venue key {venue_key!r} bound to two names: "
                    f"{known!r} and {venue_name!r}"
                )
            self.venue_docs[venue_key] = self.venue_docs.get(venue_key, 0) + 1
        old = self.prev_documents.get(key)
        if old is not None and (old is record or old == record):
            record = old
        elif self.retired:
            record = self.retired.get(record, record)  # type: ignore[assignment]
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
            k = (doc, pos, role is _EDITOR)
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
        if old is not None and (old is record or old == record):
            record = old
        else:
            self.fresh.append(record)
            if self.retired:
                record = self.retired.get(record, record)  # type: ignore[assignment]
        self.profiles[pid] = record
        return record

    def add(self, records: Iterable[_Parsed | None]) -> bool:
        """Add parsed record lines, in order, noting each line's record;
        False at the first line not in canonical form."""
        add_profile, prof_lines = self.profile, self.prof_lines
        add_document, doc_lines = self.document, self.doc_lines
        for record in records:
            if record is None:
                return False
            line, is_profile, parsed = record
            if is_profile:
                prof = add_profile(*parsed)  # type: ignore[arg-type]
                prof_lines[line] = (prof.profile_id, prof)
            else:
                doc = add_document(*parsed)  # type: ignore[arg-type]
                doc_lines[line] = (doc.document_key, doc)
        return True

    def advance(self, date: str, lines: list[bytes], source_name: str | None) -> Snapshot | None:
        """Turn this builder of a canonical file into the builder of the
        next canonical file, whose record lines are ``lines``.

        The new record maps start as copies of the previous ones.  The
        records of the lines that went away leave them, the owner index and
        the venue counts, and go into ``retired``; then only the lines the
        previous file lacks are parsed, checked and added.  The maps are not
        in file order: writers sort, and nothing reads a snapshot's records
        in order.  A carried profile is rechecked only if a document
        vanished or lost names under it.  Returns None, with nothing
        changed, if an added line is not in canonical form.  An
        IntegrityError leaves the builder unusable; a full pass over the
        file then reports the error, in file order, as a fresh parse would.
        """
        doc_lines = self.doc_lines
        prof_lines = self.prof_lines
        current = set(lines)
        records = list(_parse_lines(sorted(current.difference(doc_lines, prof_lines))))
        if None in records:
            return None
        self.date = date
        self.source_name = source_name
        self.prev_profiles = self.profiles
        self.prev_documents = self.documents
        self.profiles = profiles = dict(self.profiles)
        self.documents = documents = dict(self.documents)
        self.venues = venues = dict(self.venues)
        self.fresh = []
        retired = self.retired
        venue_docs = self.venue_docs
        owners = self.owners
        gone = [line for line in doc_lines if line not in current]
        dropped = [doc_lines.pop(line)[1] for line in gone]
        for doc in dropped:
            retired[doc] = doc
            del documents[doc.document_key]
            if doc.venue_key is not None:
                venue_docs[doc.venue_key] -= 1
                if not venue_docs[doc.venue_key]:
                    del venue_docs[doc.venue_key], venues[doc.venue_key]
        dropped_ids = []
        for line in [line for line in prof_lines if line not in current]:
            pid, prof = prof_lines.pop(line)
            dropped_ids.append(pid)
            retired[prof] = prof
            del profiles[pid]
            for doc_key, pos, _surface, role in prof.mentions:
                del owners[doc_key, pos, role is _EDITOR]
        self.add(records)
        # A repeated line or key leaves fewer records than lines.
        if len(documents) + len(profiles) != len(lines):
            raise self.error("repeated record line or key")
        return self.snapshot(dropped, [pid for pid in dropped_ids if pid not in profiles])

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
        return Snapshot(self.date, self.profiles, self.documents, self.venues)


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


def _lost_mentions(
    old: DocumentRecord, new: DocumentRecord | None
) -> Iterator[tuple[str, int, bool]]:
    """Owner-index keys of the positions ``old`` has and ``new``, the record
    now under its key, does not."""
    key = old.document_key
    authors, editors = (len(new.authors), len(new.editors)) if new is not None else (0, 0)
    for pos in range(authors, len(old.authors)):
        yield key, pos, False
    for pos in range(editors, len(old.editors)):
        yield key, pos, True


# Canonical output is line-oriented with a closed escape inventory, so a
# file that matches these byte-for-byte needs no XML machinery.  The value
# classes exclude "&" entirely, so any entity or stray markup falls back,
# and every character expat would reject or read differently: the control
# characters XML forbids, carriage return, and tab inside attribute values
# (which expat turns into a space).
_BAD = r"\x00-\x08\x0b-\x1f\ufffe\uffff"
_ATTR = rf'[^"&<>\t{_BAD}]*'
_TEXT = rf"[^&<>{_BAD}]*"
_CANON_HEAD = b'<?xml version="1.0" encoding="UTF-8"?>'
_CANON_ROOT = re.compile(rb'<snapshot date="(\d{4}-\d{2}-\d{2})" version="1">')
_CANON_DOC = re.compile(
    rf'<document pkey="({_ATTR})"(?: year="(-?[0-9]+)")?(?: url="({_ATTR})")?>'
    r"(.*)</document>"
)
_CANON_DOC_BODY = re.compile(
    rf"(?:<title>({_TEXT})</title>)?"
    rf'(?:<venue key="({_ATTR})">({_TEXT})</venue>)?'
    rf"((?:<author>{_TEXT}</author>)*)"
    rf"((?:<editor>{_TEXT}</editor>)*)"
)
_CANON_NAME = re.compile(rf"<(?:author|editor)>({_TEXT})</(?:author|editor)>")
_CANON_PROFILE = re.compile(
    rf'<profile authorid="({_ATTR})">((?:<signature [^<>&]*/>)*)</profile>'
)
_CANON_SIG = re.compile(
    rf'<signature pkey="({_ATTR})" pos="([0-9]+)" surface="({_ATTR})"'
    r'( role="editor")?/>'
)


def _canonical_lines(data: bytes) -> tuple[str, list[bytes]] | None:
    """The date and the record lines of a file in canonical form, else None.

    The lines stay bytes: splitting bytes is about twice as fast as decoding
    and splitting text, and a line delta decodes only the lines it adds.
    """
    lines = data.split(b"\n")
    if len(lines) < 4 or lines[0] != _CANON_HEAD or lines[-2:] != [b"</snapshot>", b""]:
        return None
    root = _CANON_ROOT.fullmatch(lines[1])
    if root is None:
        return None
    try:
        date = validate_date(root.group(1).decode("ascii"))
    except ValueError:
        return None
    return date, lines[2:-2]


# A canonical record line, whether it is a profile line, and what
# ``_parse_profile`` or ``_parse_document`` made of it.
_Parsed = tuple[
    bytes, bool, "tuple[Profile, list[Signature]] | tuple[DocumentRecord, str | None]"
]


def _parse_lines(lines: Iterable[bytes]) -> Iterator[_Parsed | None]:
    """Parse canonical record lines one by one; None for a line that is not
    in that form."""
    for line in lines:
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            yield None
            continue
        kind = text[1:2]
        parsed = (
            _parse_profile(text) if kind == "p"
            else _parse_document(text) if kind == "d"
            else None
        )
        yield None if parsed is None else (line, kind == "p", parsed)


def _parse_profile(line: str) -> tuple[Profile, list[Signature]] | None:
    """A canonical profile line's record and its mentions as listed."""
    m = _CANON_PROFILE.fullmatch(line)
    if m is None:
        return None
    intern = sys.intern
    sigs = []
    body = m.group(2)
    pos_in_body = 0
    for sm in _CANON_SIG.finditer(body):
        if sm.start() != pos_in_body:
            return None
        pos_in_body = sm.end()
        pkey, pos_raw, surface, role_raw = sm.group(1, 2, 3, 4)
        sigs.append(
            Signature(
                intern(pkey),
                int(pos_raw),
                intern(surface),
                _EDITOR if role_raw else _AUTHOR,
            )
        )
    if pos_in_body != len(body):
        return None
    return Profile(intern(m.group(1)), frozenset(sigs)), sigs


def _parse_document(line: str) -> tuple[DocumentRecord, str | None] | None:
    """A canonical document line's record and its venue name."""
    m = _CANON_DOC.fullmatch(line)
    if m is None:
        return None
    pkey, year_raw, url, doc_body = m.group(1, 2, 3, 4)
    b = _CANON_DOC_BODY.fullmatch(doc_body)
    if b is None:
        return None
    intern = sys.intern
    venue_key = b.group(2)
    record = DocumentRecord(
        document_key=intern(pkey),
        title=b.group(1) or "",
        year=int(year_raw) if year_raw is not None else 0,
        venue_key=intern(venue_key) if venue_key is not None else None,
        authors=tuple(map(intern, _CANON_NAME.findall(b.group(4)))),
        editors=tuple(map(intern, _CANON_NAME.findall(b.group(5)))),
        external_link=url,
    )
    return record, b.group(3)


def _parse_expat(data: bytes, prev: Snapshot | None, source_name: str | None) -> Snapshot:
    """The general parser on one file read after ``prev``."""
    return _expat_builder(data, prev, source_name)[0].snapshot()


class _Spans(NamedTuple):
    """An expat-read file and where each top-level record lies in it.

    A record's span runs from its start tag through its end tag.  It is kept
    by key as one int, ``start * (len(data) + 1) + end``, which takes a
    third of the memory of a tuple of two.
    """

    data: bytes
    root: int  # offset of the root start tag; the bytes before it are the prolog
    documents: dict[str, int]
    profiles: dict[str, int]

    def record(self, span: int) -> bytes:
        start, end = divmod(span, len(self.data) + 1)
        return self.data[start:end]


_START_TAGS = {"document": b"<document", "profile": b"<profile"}
_END_TAGS = {"document": b"</document", "profile": b"</profile"}


def _expat_builder(
    data: bytes, prev: Snapshot | None, source_name: str | None, last: _Spans | None = None
) -> tuple[_Builder, _Spans]:
    """A builder holding every record of ``data``, read by expat, and the
    spans of its records.

    ``last`` are the spans of the file ``prev`` was read from.  If that file
    has the same prolog (declaration, encoding, DOCTYPE: everything that
    changes what the same bytes mean), a top-level record whose bytes equal
    ``last``'s record under the same key is not rebuilt.  Its start and
    character callbacks are switched off until its own end tag, where the
    builder gets ``prev``'s record, in file order, and runs every check on
    it.  Expat still reads every byte, so markup errors and their offsets
    are unchanged.

    The handlers never refer to one another except ``end`` to those it puts
    back, and the parser drops them when the parse ends, so no reference
    cycle keeps ``data`` alive.
    """
    intern = sys.intern
    build: _Builder | None = None
    root = -1
    doc_spans: dict[str, int] = {}
    prof_spans: dict[str, int] = {}
    stride = len(data) + 1
    reuse: _Spans | None = None
    # Start offset of the top-level record being read.
    record_start = -1
    # The reused record being skipped: its element name, key and span.
    skipping: tuple[str, str, int] | None = None
    # document under construction
    doc_attrs: dict[str, str] = {}
    doc_title: list[str] = []
    doc_venue: tuple[str | None, list[str]] | None = None
    doc_authors: list[str] = []
    doc_editors: list[str] = []
    # profile under construction
    prof_id: str | None = None
    prof_sigs: list[Signature] = []

    stack: list[str] = []
    text: list[str] = []
    capturing = False

    parser = expat.ParserCreate()
    parser.buffer_text = True

    def fail(message: str) -> FormatError:
        return FormatError(message, parser.CurrentByteIndex, source_name)

    def require(attrs: dict[str, str], name: str, element: str) -> str:
        value = attrs.get(name)
        if value is None:
            raise fail(f"<{element}> lacks required attribute {name!r}")
        return value

    def reused(name: str, last_spans: dict[str, int], key: str | None) -> bool:
        """Whether the record starting here has the bytes of ``last``'s
        record under ``key``; if so, switch off its callbacks."""
        nonlocal skipping
        assert reuse is not None
        span = last_spans.get(key)  # type: ignore[arg-type]
        if span is None:
            return False
        record = reuse.record(span)
        if not data.startswith(record, record_start):
            return False
        assert key is not None
        skipping = (name, key, record_start * stride + record_start + len(record))
        parser.StartElementHandler = parser.CharacterDataHandler = None
        return True

    def start(name: str, attrs: dict[str, str]) -> None:
        nonlocal build, root, reuse, record_start, doc_attrs, doc_venue, prof_id, capturing
        depth = len(stack)
        if depth == 0:
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
            build = _Builder(date, prev, source_name)
            root = parser.CurrentByteIndex
            if last is not None and data[:root] == last.data[:last.root]:
                reuse = last
        elif depth == 1:
            record_start = parser.CurrentByteIndex
            if name == "document":
                if reuse is not None and reused(name, reuse.documents, attrs.get("pkey")):
                    return
                doc_attrs = attrs
                doc_title.clear()
                doc_venue = None
                doc_authors.clear()
                doc_editors.clear()
            elif name == "profile":
                if reuse is not None and reused(name, reuse.profiles, attrs.get("authorid")):
                    return
                prof_id = require(attrs, "authorid", name)
                prof_sigs.clear()
            else:
                raise fail(f"unexpected element <{name}> under <snapshot>")
        elif stack[-1] == "document":
            if name not in _TEXT_ELEMENTS:
                raise fail(f"unexpected element <{name}> under <document>")
            if name == "venue":
                doc_venue = (attrs.get("key"), [])
            text.clear()
            capturing = True
        elif stack[-1] == "profile":
            if name != "signature":
                raise fail(f"unexpected element <{name}> under <profile>")
            pkey = intern(require(attrs, "pkey", name))
            try:
                pos = parse_position(require(attrs, "pos", name))
            except ValueError as exc:
                raise fail(str(exc)) from None
            surface = intern(require(attrs, "surface", name))
            role_raw = attrs.get("role", "author")
            if role_raw == "author":
                role = _AUTHOR
            elif role_raw == "editor":
                role = _EDITOR
            else:
                raise fail(f"unknown signature role {role_raw!r}")
            prof_sigs.append(Signature(pkey, pos, surface, role))
        else:
            raise fail(f"unexpected element <{name}> inside <{stack[-1]}>")
        stack.append(name)

    def note_span(name: str, spans: dict[str, int], key: str) -> None:
        """Note the span of the top-level record whose end event this is,
        unless its start tag is not literally in ``data`` (an entity's
        replacement text, or an encoding that is not ASCII-compatible)."""
        if not data.startswith(_START_TAGS[name], record_start):
            return
        end = parser.CurrentByteIndex
        # The end event of ``<x>...</x>`` sits at ``</x``, that of ``<x/>``
        # just after ``/>``.  ``>`` may occur inside attribute values, so the
        # end is found from here, not by a search from the start tag.
        if data.startswith(_END_TAGS[name], end):
            end = data.index(b">", end) + 1
        spans[key] = record_start * stride + end

    def end(name: str) -> None:
        nonlocal prof_id, capturing, skipping
        assert build is not None
        if skipping is not None:
            if name != skipping[0]:
                return  # an element inside the reused record
            _, key, span = skipping
            skipping = None
            parser.StartElementHandler = start
            parser.CharacterDataHandler = chars
            assert prev is not None
            if name == "document":
                doc = prev.documents[key]
                build.document(doc, None if doc.venue_key is None else prev.venues[doc.venue_key])
                doc_spans[key] = span
            else:
                prof = prev.profiles[key]
                build.profile(prof, prof.mentions)
                prof_spans[key] = span
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
                venue_name = "".join(name_parts)
                venue_key = intern(raw_key if raw_key is not None else venue_name)
            record = DocumentRecord(
                document_key=pkey,
                title="".join(doc_title),
                year=year,
                venue_key=venue_key,
                authors=tuple(intern(a) for a in doc_authors),
                editors=tuple(intern(e) for e in doc_editors),
                external_link=doc_attrs.get("url"),
            )
            build.document(record, venue_name)
            note_span(name, doc_spans, pkey)
        elif name == "profile":
            assert prof_id is not None
            pid = intern(prof_id)
            build.profile(Profile(pid, frozenset(prof_sigs)), prof_sigs)
            note_span(name, prof_spans, pid)
            prof_id = None
        elif name in _TEXT_ELEMENTS and stack and stack[-1] == "document":
            content = "".join(text)
            if name == "title":
                doc_title.append(content)
            elif name == "venue":
                assert doc_venue is not None
                doc_venue[1].append(content)
            elif name == "author":
                doc_authors.append(content)
            else:
                doc_editors.append(content)
            text.clear()
            capturing = False

    def chars(chunk: str) -> None:
        if capturing:
            text.append(chunk)
        elif not chunk.isspace():
            raise fail(f"stray text {chunk.strip()[:40]!r}")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars

    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise FormatError(
            f"malformed snapshot XML: {exc}", parser.ErrorByteIndex, source_name
        ) from None
    finally:
        parser.StartElementHandler = parser.EndElementHandler = parser.CharacterDataHandler = None

    if build is None:
        raise FormatError("no <snapshot> element found", -1, source_name)
    return build, _Spans(data, root, doc_spans, prof_spans)


def iter_snapshot_xml(snapshot: Snapshot) -> Iterator[str]:
    """Yield the canonical serialization as text fragments.

    One line per record, documents before profiles, everything sorted, so
    output bytes are a pure function of the snapshot value.  Each record
    line comes from ``_document_line`` or ``_profile_line``, the renderers
    a series write uses too.
    """
    yield _HEAD
    yield _root(snapshot.time)
    documents, venues = snapshot.documents, snapshot.venues
    for key in sorted(documents):
        yield _document_line(documents[key], venues)
    profiles = snapshot.profiles
    for pid in sorted(profiles):
        yield _profile_line(pid, profiles[pid])
    yield _TAIL


_HEAD = '<?xml version="1.0" encoding="UTF-8"?>\n'
_TAIL = "</snapshot>\n"


def _root(date: str) -> str:
    return f'<snapshot date="{date}" version="{FORMAT_VERSION}">\n'


def _document_line(d: DocumentRecord, venues: dict[str, str]) -> str:
    """A document's record line, newline included; ``venues`` names its venue."""
    parts = [f'<document pkey="{escape_attr(d.document_key)}"']
    if d.year:
        parts.append(f' year="{d.year}"')
    if d.external_link is not None:
        parts.append(f' url="{escape_attr(d.external_link)}"')
    parts.append(">")
    if d.title:
        parts.append(f"<title>{escape_text(d.title)}</title>")
    if d.venue_key is not None:
        parts.append(
            f'<venue key="{escape_attr(d.venue_key)}">'
            f"{escape_text(venues[d.venue_key])}</venue>"
        )
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
    record under the same key reuses that record's line; a document only if
    the name of its venue is unchanged too.  Equal records that are other
    objects are rendered again.  Only the last snapshot's lines are held:
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
        venues = snapshot.venues
        renamed: set[str] = set()
        if last is not None and last.venues is not venues:
            renamed = {k for k, name in last.venues.items() if venues.get(k) != name}
        out = [_HEAD.encode(), _root(snapshot.time).encode()]
        old, documents = self.documents, {}
        for key in sorted(snapshot.documents):
            doc = snapshot.documents[key]
            line = old.pop(key, None)
            if line is None or doc is not last_documents[key] or doc.venue_key in renamed:
                line = _document_line(doc, venues).encode()
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
    compress: bool | None = None,
    series: _Series | None = None,
) -> Path:
    """Write a snapshot file; gzip when ``compress`` (default: .gz suffix).

    Gzip output pins mtime and leaves the name field empty, so identical
    snapshots give identical files whatever they are called.
    If writing fails (a value the format cannot carry raises FormatError),
    the error propagates and no file is left.

    ``series`` is the state ``write_history`` keeps between the files of
    one series: the snapshot written before this one and its lines.  Each
    record that is the very object of that snapshot's record reuses its
    line, and only the others are rendered; the bytes are the same either
    way.  Without it, every record is rendered.
    """
    path = Path(path)
    if compress is None:
        compress = path.suffix == ".gz"
    raw = open(path, "wb")
    try:
        with raw, (
            gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0)
            if compress else nullcontext(raw)
        ) as sink:
            if series is not None:
                lines = series.lines(snapshot)
                for i in range(0, len(lines), 4096):
                    sink.write(b"".join(lines[i:i + 4096]))
            else:
                buffer: list[str] = []
                for fragment in iter_snapshot_xml(snapshot):
                    buffer.append(fragment)
                    if len(buffer) >= 4096:
                        sink.write("".join(buffer).encode("utf-8"))
                        buffer.clear()
                if buffer:
                    sink.write("".join(buffer).encode("utf-8"))
    except BaseException:
        path.unlink()
        raise
    return path


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
    """All snapshot files in a directory, ordered by declared date."""
    found = [
        SnapshotFile.from_path(p)
        for p in Path(directory).iterdir()
        if _FILENAME_RE.fullmatch(p.name)
    ]
    return sorted(found, key=lambda f: f.date)


def load_history(source: str | Path | Sequence[SnapshotFile]) -> History:
    """Load an ordered snapshot sequence into a History.

    ``source`` is a directory (scanned for canonically named files) or an
    explicit SnapshotFile sequence.  Declared dates must strictly increase,
    and each file's header date must match its declared date.  The files
    are read in order by one reader, so each snapshot shares every record
    equal to the previous snapshot's.  A canonical file after a canonical
    file is read as a line delta: only the lines that changed are parsed
    and checked.  A file expat reads after a file expat read, with the same
    prolog, skips the callbacks of each record whose bytes equal the
    previous file's record under the same key, and takes that record.  The
    ids of the profiles each file changed against the one before, which the
    reader knows from that work, go into the history's ``profile_changes``.
    """
    if isinstance(source, (str, Path)):
        files: Sequence[SnapshotFile] = discover_snapshot_files(source)
        if not files:
            raise FormatError(f"no snapshot files found in {source}")
    else:
        files = list(source)
        if not files:
            raise ValueError("load_history needs at least one snapshot file")
    for before, after in zip(files, files[1:]):
        if after.date <= before.date:
            raise IntegrityError(
                f"snapshot dates must strictly increase: {before.path.name} "
                f"then {after.path.name}"
            )
    reader = _Reader()
    snapshots: list[Snapshot] = []
    changes: list[frozenset[str]] = []
    for file in files:
        snap = reader.read(file.path, str(file.path))
        if snap.time != file.date:
            raise FormatError(
                f"{file.path.name} declares date {file.date} but its header "
                f"says {snap.time}"
            )
        if snapshots:
            changes.append(reader.changed)
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
    if directory.is_dir():
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
    directory.mkdir(parents=True, exist_ok=True)
    series = _Series()
    return [
        write_snapshot_to(snap, directory / name, compress=compress, series=series)
        for snap, name in zip(history.snapshots, names)
    ]
