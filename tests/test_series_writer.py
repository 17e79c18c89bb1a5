"""Writing a series renders each record once.

``write_history`` reuses a record's line in the next file when the record is
the very object of the previous snapshot's record under the same key.  Every
file must still hold
exactly the bytes of its snapshot written alone, plain and gzip.
"""

import gzip
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from corrhist import snapshot_io
from corrhist.model import DocumentRecord, Profile, Role, Signature, Snapshot
from corrhist.snapshot_io import snapshot_filename, write_history, write_snapshot, write_snapshot_to

from conftest import hist, sig

_DOC_KEYS = ["d0", "d1", "d2", "d3"]
_PIDS = ["p0", "p1", "p2"]
_OPS = ["keep", "copy", "change", "rename", "drop", "restore"]


@st.composite
def _document(draw, key, venues):
    """A document whose venue, if any, is named as in ``venues``."""
    names = st.lists(st.sampled_from(["Ann", "Bo & Co"]), max_size=2)
    venue = draw(st.sampled_from([None, "v0", "v1"]))
    return DocumentRecord(
        key,
        title=draw(st.sampled_from(["", "T", "<T>"])),
        year=draw(st.sampled_from([0, 1999])),
        venue_key=venue,
        venue_name=venues.get(venue),
        authors=tuple(draw(names)),
        editors=tuple(draw(names)),
    )


@st.composite
def _profile(draw, pid):
    mentions = st.builds(
        Signature,
        st.sampled_from(_DOC_KEYS),
        st.integers(0, 1),
        st.sampled_from(["Ann", "A. \"B\""]),
        st.sampled_from([Role.AUTHOR, Role.EDITOR]),
    )
    return Profile(pid, frozenset(draw(st.lists(mentions, max_size=3))))


@st.composite
def _series(draw):
    """Up to five snapshots.  Each shares the previous one's records, except
    where an edit replaced one by an equal copy or a new record, renamed a
    venue (every document under it becomes a renamed record), or dropped a
    record or brought a dropped one back (the same object)."""
    venues = {"v0": "Venue 0", "v1": "Venue 1"}
    documents = {key: draw(_document(key, venues)) for key in _DOC_KEYS}
    profiles = {pid: draw(_profile(pid)) for pid in _PIDS}
    dropped: dict[tuple[str, str], object] = {}
    snapshots = []
    for i in range(draw(st.integers(1, 5))):
        snapshots.append(Snapshot(f"2017-{i + 1:02d}-01", dict(profiles), dict(documents)))
        for op in draw(st.lists(st.sampled_from(_OPS), max_size=4)):
            kind = draw(st.sampled_from(["document", "profile"]))
            records, keys, make = (
                (documents, _DOC_KEYS, lambda key: _document(key, venues)) if kind == "document"
                else (profiles, _PIDS, _profile)
            )
            key = draw(st.sampled_from(keys))
            if op == "copy" and key in records:
                records[key] = records[key]._replace()
            elif op == "change":
                records[key] = draw(make(key))
            elif op == "rename":
                venue = draw(st.sampled_from(["v0", "v1"]))
                venues = {**venues, venue: venues[venue] + "'"}
                for k, doc in documents.items():
                    if doc.venue_key == venue:
                        documents[k] = doc._replace(venue_name=venues[venue])
            elif op == "drop" and key in records:
                dropped[kind, key] = records.pop(key)
            elif op == "restore" and (kind, key) in dropped:
                records[key] = dropped.pop((kind, key))
    return snapshots


@given(snapshots=_series(), compress=st.booleans())
@settings(max_examples=300, deadline=None)
def test_each_file_is_its_snapshot_written_alone(snapshots, compress):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "series"
        paths = write_history(hist(*snapshots), directory, compress=compress)
        assert [p.name for p in paths] == [
            snapshot_filename(s.time, compress=compress) for s in snapshots
        ]
        for snapshot, path in zip(snapshots, paths):
            data = path.read_bytes()
            if compress:
                assert gzip.decompress(data) == write_snapshot(snapshot)
                alone = write_snapshot_to(snapshot, Path(tmp) / "alone.xml.gz")
                assert data == alone.read_bytes()
            else:
                assert data == write_snapshot(snapshot)
                alone = write_snapshot_to(snapshot, Path(tmp) / "alone.xml")
                assert alone.read_bytes() == write_snapshot(snapshot)


@given(snapshots=_series(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_the_gzip_encoder_writes_what_gzipfile_writes(snapshots, data):
    # One encoder gzips a render in chunks and an early member in one call;
    # either must be the member GzipFile writes, however the lines split.
    snapshot = data.draw(st.sampled_from(snapshots))
    lines = write_snapshot(snapshot).splitlines(keepends=True)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(lines)), max_size=len(lines) + 1)))
    chunks = [b"".join(lines[a:b]) for a, b in zip([0, *cuts], [*cuts, len(lines)])]
    buffer = io.BytesIO()
    with gzip.GzipFile(filename="", fileobj=buffer, mode="wb", mtime=0) as f:
        f.write(write_snapshot(snapshot))
    assert b"".join(snapshot_io._gzip_member(chunks)) == buffer.getvalue()


def test_a_later_file_renders_only_what_changed(tmp_path, monkeypatch):
    documents = {
        k: DocumentRecord(k, venue_key="v", venue_name="V", authors=("A",)) for k in ("d0", "d1", "d2")
    }
    profiles = {p: Profile(p, frozenset({sig(f"d{i}", 0, "A")})) for i, p in enumerate(("p0", "p1", "p2"))}
    first = Snapshot("2017-01-01", profiles, documents)
    # p1 is replaced by an equal copy, and d2 by another record.
    second = Snapshot(
        "2017-02-01",
        {**profiles, "p1": Profile("p1", profiles["p1"].mentions)},
        {**documents, "d2": DocumentRecord("d2", title="T", venue_key="v", venue_name="V", authors=("A",))},
    )
    # Renaming the venue replaces, and so renders, every document bound to it.
    third = Snapshot(
        "2017-03-01",
        second.profiles,
        {k: doc._replace(venue_name="W") for k, doc in second.documents.items()},
    )
    rendered = []
    for name in ("_document_line", "_profile_line"):
        render = getattr(snapshot_io, name)
        # A document line is rendered from the record, a profile line from
        # its id and the record.
        monkeypatch.setattr(snapshot_io, name, lambda *a, render=render: rendered.append(a[0]) or render(*a))
    write_history(hist(first, second, third), tmp_path)
    assert rendered == [
        *documents.values(), "p0", "p1", "p2",
        second.documents["d2"], "p1",
        *third.documents.values(),
    ]

