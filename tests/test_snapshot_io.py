import gzip
import io
import re

import pytest

from corrhist.errors import FormatError, IntegrityError
from corrhist.model import DocumentRecord, Profile, Role, Signature, Snapshot
from corrhist.snapshot_io import (
    SnapshotFile,
    _expat_builder,
    _Reader,
    discover_snapshot_files,
    load_history,
    parse_snapshot,
    snapshot_filename,
    write_snapshot,
    write_snapshot_to,
)

from conftest import sig, snap


def rich_snapshot(time="2017-08-01"):
    docs = {
        "conf/x/1": DocumentRecord(
            "conf/x/1",
            title="Graphs & Trees <insights>",
            year=2016,
            venue_key="vx",
            venue_name="Example Conf <X&Y>",
            authors=("Ann \"A.\" Lee", "Bo Chen"),
            editors=("Else Editor",),
            external_link="https://example.org/x1?a=1&b=2",
        ),
        "conf/x/2": DocumentRecord(
            "conf/x/2", title="Untitled", year=0, authors=("Bo Chen",)
        ),
    }
    profiles = {
        "p-ann": Profile(
            "p-ann", frozenset({sig("conf/x/1", 0, 'Ann "A." Lee')})
        ),
        "p-bo": Profile(
            "p-bo",
            frozenset(
                {sig("conf/x/1", 1, "Bo Chen"), sig("conf/x/2", 0, "Bo Chen")}
            ),
        ),
        "p-else": Profile(
            "p-else", frozenset({sig("conf/x/1", 0, "Else Editor", Role.EDITOR)})
        ),
    }
    s = Snapshot(time, profiles, docs)
    s.validate()
    return s


def assert_snapshots_equal(a, b):
    assert a.time == b.time
    assert a.profiles == b.profiles
    assert a.documents == b.documents


def test_round_trip_with_escaping():
    s = rich_snapshot()
    data = write_snapshot(s)
    parsed = parse_snapshot(data)
    assert_snapshots_equal(s, parsed)


def test_serialization_is_deterministic():
    s = rich_snapshot()
    assert write_snapshot(s) == write_snapshot(s)


def test_gzip_round_trip_and_byte_stability(tmp_path):
    s = rich_snapshot()
    p1 = tmp_path / "a" / snapshot_filename(s.time, compress=True)
    p2 = tmp_path / "b" / snapshot_filename(s.time, compress=True)
    p3 = tmp_path / "c" / "renamed.xml.gz"
    for p in (p1, p2, p3):
        p.parent.mkdir()
        write_snapshot_to(s, p)
    assert p1.name.endswith(".xml.gz")
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()
    assert_snapshots_equal(s, parse_snapshot(p1.read_bytes()))


def test_parse_from_non_seekable_stream():
    s = rich_snapshot()
    data = gzip.compress(write_snapshot(s))

    class OneWay(io.RawIOBase):
        def __init__(self, payload):
            self._buf = io.BytesIO(payload)

        def readable(self):
            return True

        def readinto(self, b):
            return self._buf.readinto(b)

        def seekable(self):
            return False

    assert_snapshots_equal(s, parse_snapshot(OneWay(data)))


def test_malformed_xml_reports_offset():
    with pytest.raises(FormatError) as err:
        parse_snapshot(b"<snapshot date='2017-01-01' version='1'><oops")
    assert "byte" in str(err.value)


def test_wrong_root_element():
    with pytest.raises(FormatError):
        parse_snapshot(b"<library date='2017-01-01'/>")


def test_missing_or_bad_date():
    with pytest.raises(FormatError):
        parse_snapshot(b"<snapshot version='1'/>")
    with pytest.raises(FormatError):
        parse_snapshot(b"<snapshot date='01.01.2017' version='1'/>")


def test_date_with_a_newline_reference_is_rejected():
    # Accepted, it was written back with a raw newline in the attribute,
    # which reads as a space.
    with pytest.raises(FormatError, match="not an ISO date"):
        parse_snapshot(b"<snapshot date='2015-01-01&#10;' version='1'/>")


def test_unsupported_version():
    with pytest.raises(FormatError):
        parse_snapshot(b"<snapshot date='2017-01-01' version='99'/>")


def make_xml(profile_block, docs_block=None):
    docs = docs_block if docs_block is not None else (
        '<document pkey="d1"><title>T</title>'
        "<author>A</author><author>B</author></document>"
    )
    return (
        "<snapshot date='2017-01-01' version='1'>"
        f"{docs}{profile_block}</snapshot>"
    ).encode()


# ``int()`` also takes these; the canonical grammar takes none of them.
LOOSE_INTEGERS = ["0_1", "\u0661", " 1", "1 ", "+1", "1.0", ""]


@pytest.mark.parametrize("pos", LOOSE_INTEGERS)
def test_signature_position_must_be_ascii_digits(pos):
    xml = make_xml(
        f'<profile authorid="p1"><signature pkey="d1" pos="{pos}" surface="A"/></profile>'
    )
    with pytest.raises(FormatError, match="non-integer signature position"):
        parse_snapshot(xml)


def test_negative_signature_position_keeps_its_message():
    xml = make_xml(
        '<profile authorid="p1"><signature pkey="d1" pos="-1" surface="A"/></profile>'
    )
    with pytest.raises(FormatError, match="negative signature position -1"):
        parse_snapshot(xml)


@pytest.mark.parametrize("year", LOOSE_INTEGERS)
def test_document_year_must_be_ascii_digits(year):
    xml = make_xml("", f'<document pkey="d1" year="{year}"><title>T</title></document>')
    with pytest.raises(FormatError, match="non-integer year"):
        parse_snapshot(xml)


def test_negative_year_reads_on_both_paths():
    s = Snapshot("2017-01-01", {}, {"d1": DocumentRecord("d1", year=-5)})
    data = write_snapshot(s)
    assert parse_snapshot(data).documents["d1"].year == -5
    assert parse_snapshot(data.replace(b"<document", b" <document")).documents["d1"].year == -5


def test_duplicate_mention_names_both_profiles():
    xml = make_xml(
        '<profile authorid="p1"><signature pkey="d1" pos="0" surface="A"/></profile>'
        '<profile authorid="p2"><signature pkey="d1" pos="0" surface="A"/></profile>'
    )
    with pytest.raises(IntegrityError) as err:
        parse_snapshot(xml)
    assert "p1" in str(err.value) and "p2" in str(err.value)


def test_unknown_document_reference():
    xml = make_xml(
        '<profile authorid="p1"><signature pkey="ghost" pos="0" surface="A"/></profile>'
    )
    with pytest.raises(IntegrityError):
        parse_snapshot(xml)


def test_position_out_of_range():
    xml = make_xml(
        '<profile authorid="p1"><signature pkey="d1" pos="7" surface="A"/></profile>'
    )
    with pytest.raises(IntegrityError):
        parse_snapshot(xml)


def test_blank_surface_rejected():
    xml = make_xml(
        '<profile authorid="p1"><signature pkey="d1" pos="0" surface="  "/></profile>'
    )
    with pytest.raises(IntegrityError):
        parse_snapshot(xml)


def test_duplicate_document_key_rejected():
    xml = make_xml(
        '<profile authorid="p1"><signature pkey="d1" pos="0" surface="A"/></profile>',
        docs_block=(
            '<document pkey="d1"><author>A</author></document>'
            '<document pkey="d1"><author>A</author></document>'
        ),
    )
    with pytest.raises(IntegrityError):
        parse_snapshot(xml)


def test_duplicate_profile_id_rejected():
    xml = make_xml(
        '<profile authorid="p1"><signature pkey="d1" pos="0" surface="A"/></profile>'
        '<profile authorid="p1"><signature pkey="d1" pos="1" surface="B"/></profile>'
    )
    with pytest.raises(IntegrityError):
        parse_snapshot(xml)


def test_dedup_reuses_unchanged_objects(tmp_path):
    # The escapes in rich_snapshot force the general parser, which reads no
    # line delta: the sharing comes from the builder's previous snapshot.
    for time in ("2017-08-01", "2017-09-01"):
        write_snapshot_to(rich_snapshot(time), tmp_path / snapshot_filename(time))
    first, second = load_history(tmp_path).snapshots
    for pid, prof in second.profiles.items():
        assert prof is first.profiles[pid]
    for key, doc in second.documents.items():
        assert doc is first.documents[key]


def test_load_history_discovers_and_orders(tmp_path):
    s1 = snap("2017-01-01", {"p1": [("d1", 0, "A")]})
    s2 = snap("2017-06-01", {"p1": [("d1", 0, "A")], "p2": [("d1", 1, "B")]})
    write_snapshot_to(s2, tmp_path / snapshot_filename(s2.time))
    write_snapshot_to(s1, tmp_path / snapshot_filename(s1.time, compress=True))
    (tmp_path / "notes.txt").write_text("ignore me")
    files = discover_snapshot_files(tmp_path)
    assert [f.date for f in files] == ["2017-01-01", "2017-06-01"]
    h = load_history(tmp_path)
    assert h.times() == ("2017-01-01", "2017-06-01")


def test_names_that_only_end_in_a_snapshot_name_are_not_snapshots(tmp_path):
    s = snap("2015-01-01", {"p1": [("d1", 0, "A")]})
    write_snapshot_to(s, tmp_path / snapshot_filename(s.time))
    strays = ["old-snapshot-2015-01-01.xml", "backup-snapshot-2014-06-01.xml.gz"]
    for name in strays:
        write_snapshot_to(s, tmp_path / name)
    assert [f.path.name for f in discover_snapshot_files(tmp_path)] == [
        "snapshot-2015-01-01.xml"
    ]
    assert load_history(tmp_path).times() == ("2015-01-01",)
    for name in strays + ["snapshot-2015-01-01.xml\n"]:
        with pytest.raises(FormatError, match="snapshot-YYYY-MM-DD"):
            SnapshotFile.from_path(tmp_path / name)


def test_names_with_non_ascii_digits_are_not_snapshots(tmp_path):
    s = snap("2015-01-01", {"p1": [("d1", 0, "A")]})
    write_snapshot_to(s, tmp_path / snapshot_filename(s.time))
    stray = "snapshot-\u0662\u0660\u0661\u0665-01-01.xml"
    write_snapshot_to(s, tmp_path / stray)
    assert [f.path.name for f in discover_snapshot_files(tmp_path)] == [
        "snapshot-2015-01-01.xml"
    ]
    with pytest.raises(FormatError, match="snapshot-YYYY-MM-DD"):
        SnapshotFile.from_path(tmp_path / stray)


def test_load_history_empty_directory(tmp_path):
    with pytest.raises(FormatError):
        load_history(tmp_path)


def test_load_history_rejects_header_mismatch(tmp_path):
    s = snap("2017-01-01", {"p1": [("d1", 0, "A")]})
    path = tmp_path / snapshot_filename("2017-02-01")
    path.write_bytes(write_snapshot(s))
    with pytest.raises(FormatError) as err:
        load_history(tmp_path)
    assert path.name in str(err.value)


def test_load_history_shares_unchanged_profiles(tmp_path):
    s1 = snap("2017-01-01", {"p1": [("d1", 0, "A")], "p2": [("d1", 1, "B")]})
    s2 = snap("2017-02-01", {"p1": [("d1", 0, "A")], "p2": [("d1", 1, "B2")]})
    write_snapshot_to(s1, tmp_path / snapshot_filename(s1.time))
    write_snapshot_to(s2, tmp_path / snapshot_filename(s2.time))
    h = load_history(tmp_path)
    first, second = h.snapshots
    assert second.profiles["p1"] is first.profiles["p1"]
    assert second.profiles["p2"] is not first.profiles["p2"]


def plain_snapshot(time="2017-08-01"):
    """Content free of XML metacharacters, so serialization is canonical."""
    docs = {
        "conf/y/1": DocumentRecord(
            "conf/y/1",
            title="Optimal Trees",
            year=2015,
            venue_key="vy",
            venue_name="Symposium on Y",
            authors=("José Müller", "Wei Wang 0050"),
            editors=("Ed One",),
            external_link="https://example.org/y1",
        ),
        "conf/y/2": DocumentRecord(
            "conf/y/2", year=0, authors=("Wei Wang 0050",), external_link=""
        ),
        "conf/y/3": DocumentRecord("conf/y/3", editors=("Unclaimed Editor",)),
    }
    profiles = {
        "p-jose": Profile("p-jose", frozenset({sig("conf/y/1", 0, "José Müller")})),
        "p-wei": Profile(
            "p-wei",
            frozenset(
                {sig("conf/y/1", 1, "Wei Wang 0050"), sig("conf/y/2", 0, "W. Wang")}
            ),
        ),
        "p-ed": Profile(
            "p-ed", frozenset({sig("conf/y/1", 0, "Ed One", Role.EDITOR)})
        ),
    }
    s = Snapshot(time, profiles, docs)
    s.validate()
    return s


def test_fast_path_accepts_own_output():
    s = plain_snapshot()
    fast = _Reader().canonical(write_snapshot(s), None)
    assert not isinstance(fast, str)
    assert_snapshots_equal(fast, s)


def test_fast_path_matches_general_parser():
    data = write_snapshot(plain_snapshot())
    assert_snapshots_equal(_Reader().canonical(data, None), _expat_builder(data, None, None)[1])


def test_escaped_content_takes_general_parser():
    s = rich_snapshot()
    data = write_snapshot(s)
    assert isinstance(_Reader().canonical(data, None), str)
    assert_snapshots_equal(parse_snapshot(data), s)


def test_equivalent_markup_variants_parse_identically():
    # Semantically identical files in shapes the serializer never produces
    # must decline the fast path yet parse to the same snapshot.
    base = write_snapshot(plain_snapshot())
    expected = parse_snapshot(base)
    head, _, tail = base.partition(b"\n")
    variants = [
        base.replace(b' version="1"', b" version='1'", 1),
        head + b"\n<!-- refreshed -->\n" + tail,
        base.replace(b"<title>Optimal Trees</title>",
                     b"<title>Optimal Tree&#115;</title>", 1),
        base.replace(b"\n<profile", b"\n  <profile"),
    ]
    for data in variants:
        assert isinstance(_Reader().canonical(data, None), str)
        assert_snapshots_equal(parse_snapshot(data), expected)


def canonical_lines(*records):
    return "\n".join(
        [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<snapshot date="2017-01-01" version="1">',
            *records,
            "</snapshot>",
            "",
        ]
    ).encode()


def test_empty_profile_rejected():
    xml = make_xml('<profile authorid="p1"></profile>')
    with pytest.raises(IntegrityError, match="no signatures"):
        parse_snapshot(xml)


def test_canonical_looking_but_invalid_input_still_diagnosed():
    doc = '<document pkey="d1"><author>A</author></document>'
    cases = [
        ('<profile authorid="p1"></profile>', "no signatures"),
        (
            '<profile authorid="p1">'
            '<signature pkey="d1" pos="0" surface=" "/></profile>',
            "blank surface",
        ),
        (
            '<profile authorid="p1"><signature pkey="d1" pos="0" surface="A"/>'
            '</profile>'
            '<profile authorid="p2"><signature pkey="d1" pos="0" surface="A"/>'
            '</profile>',
            "two profiles",
        ),
        (
            '<profile authorid="p1"><signature pkey="d1" pos="0" surface="A"/>'
            '<signature pkey="d1" pos="0" surface="A."/></profile>',
            re.escape("profile p1 lists mention ('d1', 0, 'author') twice"),
        ),
        (
            '<profile authorid=""><signature pkey="d1" pos="0" surface="A"/></profile>',
            "profile id must be non-empty",
        ),
        ('<document pkey=""><author>A</author></document>', "document key must be non-empty"),
        (
            '<document pkey="d2"><venue key="">X</venue></document>',
            "document d2: venue key must be non-empty",
        ),
    ]
    for record, message in cases:
        with pytest.raises(IntegrityError, match=message) as canonical:
            parse_snapshot(canonical_lines(doc, record))
        # Indented record lines miss the canonical form and go to expat.
        with pytest.raises(IntegrityError) as general:
            parse_snapshot(canonical_lines("  " + doc, "  " + record))
        assert str(general.value) == str(canonical.value)


def test_reference_error_names_the_first_bad_mention_in_file_order():
    # A set iterates in an order that depends on hashes and on the order it
    # was built in; every path names d00, the first mention a writer lists.
    sigs = [sig(f"d{i:02}", 0, "A") for i in range(30)]
    listed = "".join(f'<signature pkey="{m.document_key}" pos="0" surface="A"/>' for m in sigs)
    for mentions in (sigs, sigs[::-1]):
        s = Snapshot("2017-01-01", {"p1": Profile("p1", frozenset(mentions))}, {})
        for check in (
            s.validate,
            lambda: parse_snapshot(write_snapshot(s)),
            lambda: parse_snapshot(canonical_lines(f'  <profile authorid="p1">{listed}</profile>')),
        ):
            with pytest.raises(IntegrityError) as err:
                check()
            assert str(err.value) == "profile p1: mention references unknown document 'd00'"


def indented(data):
    """Canonical bytes with each record line indented: expat reads them."""
    return re.sub(rb"(?m)^(?=<(?:document|profile))", b"  ", data)


@pytest.mark.parametrize("venue", ["<venue/>", "<venue></venue>"])
def test_a_venue_without_a_key_is_keyed_by_its_name_which_must_not_be_empty(venue):
    # Only expat reads a venue without a key attribute.
    data = make_xml("", f'<document pkey="d1">{venue}</document>')
    with pytest.raises(IntegrityError, match="document d1: venue key must be non-empty"):
        parse_snapshot(data)
    named = parse_snapshot(make_xml("", '<document pkey="d1"><venue>X</venue></document>'))
    doc = named.documents["d1"]
    assert (doc.venue_key, doc.venue_name) == ("X", "X")


@pytest.mark.parametrize("render", [lambda data: data, indented], ids=["unindented", "indented"])
@pytest.mark.parametrize("child, twice", [
    ("title", "<title>Alpha</title><title>Beta</title>"),
    ("venue", '<venue key="v1">One</venue><venue key="v2">Two</venue>'),
])
def test_expat_refuses_a_second_title_or_venue(render, child, twice):
    # The canonical grammar allows one of each, so expat reads the file.
    data = render(canonical_lines(f'<document pkey="d1">{twice}<author>A</author></document>'))
    with pytest.raises(FormatError, match=f"second <{child}> in one <document>") as err:
        parse_snapshot(data)
    assert err.value.byte_offset == data.index(f"<{child}".encode(), data.index(f"<{child}".encode()) + 1)


@pytest.mark.parametrize("render", [lambda data: data, indented], ids=["canonical", "indented"])
def test_memoized_reuse_is_rechecked_against_changed_documents(tmp_path, render):
    # p2's record line reverts to its first-file bytes while d1 has shrunk
    # underneath it, so the third file must recheck p2 against the new d1
    # even though its line equals one the reader has seen before.
    p1 = Profile("p1", frozenset({sig("d1", 0, "A")}))
    p2 = Profile("p2", frozenset({sig("d1", 1, "B")}))
    wide = {"d1": DocumentRecord("d1", authors=("A", "B"))}
    s1 = Snapshot("2017-01-01", {"p1": p1, "p2": p2}, wide)
    s1.validate()
    s2 = Snapshot(
        "2017-02-01",
        {"p1": Profile("p1", frozenset({sig("d1", 0, "A"), sig("d1", 1, "B")}))},
        wide,
    )
    s2.validate()
    bad = Snapshot(
        "2017-03-01",
        {"p1": p1, "p2": p2},
        {"d1": DocumentRecord("d1", authors=("A",))},
    )
    for s in (s1, s2, bad):
        (tmp_path / snapshot_filename(s.time)).write_bytes(render(write_snapshot(s)))
    with pytest.raises(IntegrityError, match="out of range"):
        load_history(tmp_path)


def test_load_history_tolerates_noncanonical_files_in_sequence(tmp_path):
    assign = {"p1": [("d1", 0, "A")], "p2": [("d1", 1, "B")]}
    s1 = snap("2017-01-01", assign)
    middle = write_snapshot(snap("2017-02-01", assign))
    head, _, tail = middle.partition(b"\n")
    write_snapshot_to(s1, tmp_path / snapshot_filename("2017-01-01"))
    (tmp_path / snapshot_filename("2017-02-01")).write_bytes(
        head + b"\n<!-- refreshed -->\n" + tail
    )
    write_snapshot_to(snap("2017-03-01", assign), tmp_path / snapshot_filename("2017-03-01"))
    a, b, c = load_history(tmp_path).snapshots
    assert b.profiles == a.profiles
    assert b.profiles["p1"] is a.profiles["p1"]
    assert c.profiles["p1"] is a.profiles["p1"]
    assert c.documents["d1"] is a.documents["d1"]


def test_memoized_load_rejects_duplicated_lines(tmp_path):
    write_snapshot_to(
        snap("2017-01-01", {"p1": [("d1", 0, "A")]}),
        tmp_path / snapshot_filename("2017-01-01"),
    )
    data = write_snapshot(snap("2017-02-01", {"p1": [("d1", 0, "A")]}))
    line = b'<profile authorid="p1"><signature pkey="d1" pos="0" surface="A"/></profile>\n'
    assert line in data
    (tmp_path / snapshot_filename("2017-02-01")).write_bytes(
        data.replace(line, line + line)
    )
    with pytest.raises(IntegrityError):
        load_history(tmp_path)


def assert_built_as_constructed(built, ref):
    """``built``, which a reader made without the public constructor, is
    exactly the record ``ref``, which the constructor made."""
    assert type(built) is type(ref)
    assert built == ref and hash(built) == hash(ref) and repr(built) == repr(ref)
    assert built._asdict() == ref._asdict()
    key = ref._fields[0]
    assert built._replace(**{key: "X"}) == ref._replace(**{key: "X"})
    with pytest.raises(AttributeError):
        setattr(built, key, "X")
    assert not hasattr(built, "__dict__")


@pytest.mark.parametrize(
    "render, paths",
    [
        (lambda data: data, ["full canonical pass", "line delta"]),
        (indented, ["full expat pass", "expat record delta"]),
    ],
    ids=["canonical", "expat"],
)
def test_read_records_are_those_the_constructors_make(render, paths):
    first = plain_snapshot("2017-08-01")
    docs = dict(first.documents)
    docs["conf/y/2"] = docs["conf/y/2"]._replace(title="Revised", year=2016)
    docs["conf/y/4"] = DocumentRecord("conf/y/4", authors=("Ann Lee",), external_link="u")
    profiles = dict(first.profiles)
    profiles["p-ann"] = Profile("p-ann", frozenset({sig("conf/y/4", 0, "Ann Lee")}))
    profiles["p-wei"] = Profile("p-wei", frozenset({sig("conf/y/1", 1, "Wei Wang 0050")}))
    second = Snapshot("2017-09-01", profiles, docs)
    second.validate()
    reader = _Reader()
    for want in (first, second):
        got = reader.read(render(write_snapshot(want)), None)
        assert got.documents.keys() == want.documents.keys()
        for key, doc in got.documents.items():
            assert_built_as_constructed(doc, want.documents[key])
        assert got.profiles.keys() == want.profiles.keys()
        for pid, prof in got.profiles.items():
            wanted = {m.key: m for m in want.profiles[pid].mentions}
            assert len(prof.mentions) == len(wanted)
            for mention in prof.mentions:
                assert_built_as_constructed(mention, wanted[mention.key])
    assert [path for path, _reason in reader.paths] == paths
