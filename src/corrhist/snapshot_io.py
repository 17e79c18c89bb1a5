"""Reading and writing snapshot files.

A snapshot file is a flat XML document: a ``snapshot`` root carrying the
observation date, document records, then profile records.  Writing is
deterministic, so the same snapshot value always yields byte-identical
output.

Each file is read into memory whole and decompressed in one call if it
starts with the gzip magic bytes.  Files in the exact form this module writes
take a line-oriented fast path, everything else goes through expat.  Both
parsers feed one record builder, which alone enforces integrity, so they
accept and reject the same records with the same messages.  In a series, a
file in that form after another one is read as a line delta: only the lines
that changed are parsed, and only their records are checked.
"""

from __future__ import annotations

import gzip
import re
import sys
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence
from xml.parsers import expat

from ._xml import escape_attr, escape_text, parse_int
from .errors import FormatError, IntegrityError
from .model import DocumentRecord, Profile, Role, Signature, Snapshot, History, validate_date

FORMAT_VERSION = "1"

GZIP_MAGIC = b"\x1f\x8b"

_FILENAME_RE = re.compile(r"snapshot-([0-9]{4}-[0-9]{2}-[0-9]{2})\.xml(?:\.gz)?")

_TEXT_ELEMENTS = frozenset({"title", "venue", "author", "editor"})

# Hot loops test roles by identity, and mention keys hold ``role is _EDITOR``
# rather than the Role itself, whose hash runs Python code.
_AUTHOR = Role.AUTHOR
_EDITOR = Role.EDITOR


def parse_snapshot(
    source: bytes | str | Path | BinaryIO, *, source_name: str | None = None
) -> Snapshot:
    """Parse one snapshot from bytes, a path, or a binary stream.

    The result satisfies ``Snapshot.validate``: integrity violations in the
    input (a mention claimed by two profiles, a dangling document key, a
    position past the end of the name list) raise IntegrityError naming the
    offending records.  Malformed markup raises FormatError with the byte
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
    object.  Any other file takes a full builder pass, which shares every
    record equal to the previous snapshot's.  ``retired`` holds the records
    that deltas dropped, so a record that comes back in a later file is
    shared again.
    """

    def __init__(self, prev: Snapshot | None = None) -> None:
        self.prev = prev
        # The builder of ``prev`` when its file was canonical: the state the
        # next delta starts from.
        self.build: _Builder | None = None
        self.retired: dict[Profile | DocumentRecord, Profile | DocumentRecord] = {}

    def read(self, source: bytes | str | Path | BinaryIO, source_name: str | None) -> Snapshot:
        if isinstance(source, (str, Path)):
            with open(source, "rb") as f:
                data = f.read()
        else:
            data = source if isinstance(source, bytes) else source.read()
        if data[:2] == GZIP_MAGIC:
            try:
                data = gzip.decompress(data)
            except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
                raise FormatError(f"corrupt gzip stream: {exc}", -1, source_name) from None
        snapshot = self.canonical(data, source_name)
        if snapshot is None:
            snapshot = _parse_expat(data, self.prev, source_name)
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
                return snapshot
        build = _Builder(date, self.prev, source_name, self.retired)
        if not build.add(_parse_lines(lines)):
            return None
        self.build = build
        return build.snapshot()


def _parse_canonical(
    data: bytes, prev: Snapshot | None, source_name: str | None = None
) -> Snapshot | None:
    """``_Reader.canonical`` on one file read after ``prev``."""
    return _Reader(prev).canonical(data, source_name)


class _Builder:
    """Collects one snapshot's records; the one place integrity is enforced.

    It rejects a duplicate document key or profile id, an empty profile, a
    blank surface, a mention claimed twice, a venue key bound to two names,
    and mentions of unknown documents or positions.  A record equal to the
    previous snapshot's record under the same key, or to a record in
    ``retired``, is replaced by that earlier object, so a series shares
    storage for everything unchanged.  ``prev`` must itself have come out of
    a builder.  The builder of a canonical file keeps its record lines, the
    owner index and the venue counts, from which ``advance`` reads the next
    canonical file as a line delta.
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

        Only lines the previous file lacks are parsed, and only their
        records are checked, after the records of the lines that went away
        have left the owner index and the venue counts and gone into
        ``retired``.  A carried profile is rechecked only if a document
        vanished or lost names under it.  Returns None, with nothing
        changed, if an added line is not in canonical form.  An
        IntegrityError leaves the builder unusable; a full pass over the
        file then reports the error as a fresh parse would.
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
        self.profiles = {}
        self.documents = {}
        self.venues = venues = dict(self.venues)
        self.fresh = []
        retired = self.retired
        venue_docs = self.venue_docs
        owners = self.owners
        gone = [line for line in doc_lines if line not in current]
        dropped = [doc_lines.pop(line)[1] for line in gone]
        for doc in dropped:
            retired[doc] = doc
            if doc.venue_key is not None:
                venue_docs[doc.venue_key] -= 1
                if not venue_docs[doc.venue_key]:
                    del venue_docs[doc.venue_key], venues[doc.venue_key]
        for line in [line for line in prof_lines if line not in current]:
            prof = prof_lines.pop(line)[1]
            retired[prof] = prof
            for doc_key, pos, _surface, role in prof.mentions:
                del owners[doc_key, pos, role is _EDITOR]
        self.add(records)
        # File order, as a full pass gives it; a repeated line or key leaves
        # fewer records than lines.
        self.documents = dict(filter(None, map(doc_lines.get, lines)))
        self.profiles = dict(filter(None, map(prof_lines.get, lines)))
        if len(self.documents) + len(self.profiles) != len(lines):
            raise self.error("repeated record line or key")
        return self.snapshot(dropped)

    def _check_references(self, prof: Profile) -> None:
        documents = self.documents
        for doc_key, pos, _surface, role in prof.mentions:
            doc = documents.get(doc_key)
            if doc is None:
                raise self.error(
                    f"profile {prof.profile_id}: mention references unknown "
                    f"document {doc_key!r}"
                )
            names = doc.editors if role is _EDITOR else doc.authors
            if pos >= len(names):
                raise self.error(
                    f"profile {prof.profile_id}: position {pos} out of range for "
                    f"{role.value} list of {doc_key} (length {len(names)})"
                )

    def snapshot(self, changed: Iterable[DocumentRecord] | None = None) -> Snapshot:
        """Check the fresh profiles' references and return the snapshot.

        ``changed`` are the previous snapshot's documents that this one
        dropped or replaced, found by comparison if not given.  If one of
        them took away a position that a profile claims, every profile is
        checked, in file order, so the error is the one a fresh parse
        reports.
        """
        documents = self.documents
        if changed is None:
            changed = [
                rec for key, rec in self.prev_documents.items()
                if documents.get(key) is not rec
            ]
        owners = self.owners
        if any(
            k in owners
            for old in changed
            for k in _lost_mentions(old, documents.get(old.document_key))
        ):
            self.fresh = list(self.profiles.values())
        for prof in self.fresh:
            self._check_references(prof)
        return Snapshot(self.date, self.profiles, self.documents, self.venues)


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
    intern = sys.intern
    build: _Builder | None = None
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

    def start(name: str, attrs: dict[str, str]) -> None:
        nonlocal build, doc_attrs, doc_venue, prof_id, capturing
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
        elif depth == 1:
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
            pos_raw = require(attrs, "pos", name)
            try:
                pos = parse_int(pos_raw)
            except ValueError:
                raise fail(f"non-integer signature position {pos_raw!r}") from None
            if pos < 0:
                raise fail(f"negative signature position {pos}")
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

    def end(name: str) -> None:
        nonlocal prof_id, capturing
        stack.pop()
        assert build is not None
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
        elif name == "profile":
            assert prof_id is not None
            build.profile(Profile(intern(prof_id), frozenset(prof_sigs)), prof_sigs)
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

    def chars(data: str) -> None:
        if capturing:
            text.append(data)
        elif not data.isspace():
            raise fail(f"stray text {data.strip()[:40]!r}")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars

    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise FormatError(
            f"malformed snapshot XML: {exc}", parser.ErrorByteIndex, source_name
        ) from None

    if build is None:
        raise FormatError("no <snapshot> element found", -1, source_name)
    return build.snapshot()


def iter_snapshot_xml(snapshot: Snapshot) -> Iterator[str]:
    """Yield the canonical serialization as text fragments.

    One line per record, documents before profiles, everything sorted, so
    output bytes are a pure function of the snapshot value.
    """
    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield f'<snapshot date="{snapshot.time}" version="{FORMAT_VERSION}">\n'
    for key in sorted(snapshot.documents):
        d = snapshot.documents[key]
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
                f"{escape_text(snapshot.venues[d.venue_key])}</venue>"
            )
        for a in d.authors:
            parts.append(f"<author>{escape_text(a)}</author>")
        for e in d.editors:
            parts.append(f"<editor>{escape_text(e)}</editor>")
        parts.append("</document>\n")
        yield "".join(parts)
    for pid in sorted(snapshot.profiles):
        prof = snapshot.profiles[pid]
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
        yield "".join(parts)
    yield "</snapshot>\n"


def write_snapshot(snapshot: Snapshot) -> bytes:
    """Serialize to bytes (uncompressed)."""
    return "".join(iter_snapshot_xml(snapshot)).encode("utf-8")


def write_snapshot_to(
    snapshot: Snapshot,
    path: str | Path,
    *,
    compress: bool | None = None,
) -> Path:
    """Write a snapshot file; gzip when ``compress`` (default: .gz suffix).

    Gzip output pins mtime and leaves the name field empty, so identical
    snapshots give identical files whatever they are called.
    A value the format cannot carry raises FormatError and leaves no file.
    """
    path = Path(path)
    if compress is None:
        compress = path.suffix == ".gz"
    try:
        with open(path, "wb") as raw, (
            gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0)
            if compress else nullcontext(raw)
        ) as sink:
            buffer: list[str] = []
            for fragment in iter_snapshot_xml(snapshot):
                buffer.append(fragment)
                if len(buffer) >= 4096:
                    sink.write("".join(buffer).encode("utf-8"))
                    buffer.clear()
            if buffer:
                sink.write("".join(buffer).encode("utf-8"))
    except FormatError:
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
    and checked.
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
    for file in files:
        snap = reader.read(file.path, str(file.path))
        if snap.time != file.date:
            raise FormatError(
                f"{file.path.name} declares date {file.date} but its header "
                f"says {snap.time}"
            )
        snapshots.append(snap)
    return History(tuple(snapshots))
